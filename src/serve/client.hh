/**
 * @file
 * Blocking client for the cac_serve wire protocol.
 *
 * One Client owns one TCP connection. request() sends a frame and
 * reads responses until the terminal one (RESULT, ERROR or PONG),
 * collecting interleaved PROGRESS frames along the way — the exact
 * state machine docs/SERVICE.md specifies for well-behaved clients.
 * The same class drives the cac_bench_client load generator and the
 * serve test suite (and CI's service smoke through them), so every
 * consumer measures the protocol the same way.
 *
 * Transport failures surface as cac::Error values in Reply.transport;
 * server-side failures arrive as decoded ERROR payloads (Reply.type ==
 * ErrorMsg with code/message fields). Nothing here throws.
 */

#ifndef CAC_SERVE_CLIENT_HH
#define CAC_SERVE_CLIENT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/error.hh"
#include "serve/protocol.hh"

namespace cac::serve
{

/** Outcome of one request/response exchange. */
struct Reply
{
    /** Terminal frame type (Result, ErrorMsg, Pong). */
    MsgType type = MsgType::ErrorMsg;
    std::uint8_t flags = 0; ///< kFlagMemoHit on memoized results
    std::string payload;    ///< terminal frame payload (key=value)
    /** PROGRESS payloads received before the terminal frame. */
    std::vector<std::string> progress;
    /** Socket/framing failure (terminal fields invalid when set). */
    Error transport;

    bool ok() const { return transport.ok() && type == MsgType::Result; }
    bool memoHit() const { return (flags & kFlagMemoHit) != 0; }

    /** Parse the terminal payload as key=value (empty map on error). */
    std::map<std::string, std::string> kv() const;
};

/** One blocking connection to a cac_serve instance. */
class Client
{
  public:
    Client() = default;
    ~Client();
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;
    Client(Client &&other) noexcept
        : fd_(other.fd_), nextId_(other.nextId_)
    {
        other.fd_ = -1;
    }
    Client &operator=(Client &&other) noexcept
    {
        if (this != &other) {
            disconnect();
            fd_ = other.fd_;
            nextId_ = other.nextId_;
            other.fd_ = -1;
        }
        return *this;
    }

    /** Connect to 127.0.0.1:@p port. */
    Error connectTo(unsigned short port);

    bool connected() const { return fd_ >= 0; }
    void disconnect();

    /**
     * The raw socket, for callers that need frame-level control (the
     * saturation test drives a request half-way — to its "computing"
     * PROGRESS event — before launching the competing one).
     */
    int fd() const { return fd_; }

    /**
     * Send a request and read to its terminal response. @p payload is
     * the key=value request body (empty for Ping/Stats/Shutdown).
     */
    Reply request(MsgType type, const std::string &payload);

    Reply ping() { return request(MsgType::Ping, std::string()); }
    Reply stats() { return request(MsgType::Stats, std::string()); }
    Reply shutdownServer()
    {
        return request(MsgType::Shutdown, std::string());
    }

    /**
     * Write raw bytes to the socket, bypassing the framing layer —
     * the malformed-frame test path. Returns the server's ERROR
     * response (or the transport error when it just hangs up).
     */
    Reply sendMalformed(const std::string &bytes);

  private:
    int fd_ = -1;
    std::uint32_t nextId_ = 1;
};

} // namespace cac::serve

#endif // CAC_SERVE_CLIENT_HH
