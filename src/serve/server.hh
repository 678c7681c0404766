/**
 * @file
 * The advisor server: TCP accept loop, admission control, memoized
 * request execution.
 *
 * One Server owns a listening socket on the loopback interface and a
 * thread per accepted connection. Cheap requests (PING, STATS) are
 * answered inline; advisor jobs (ANALYZE, RECOMMEND) flow through
 * three gates, in order:
 *
 *   client -> framing -> memo cache -> single-flight -> admission ->
 *     SweepRunner / IndexSearch -> memo fill -> response
 *
 *   1. memo cache — a canonical-key hit returns the previously
 *      computed payload immediately (response flag kFlagMemoHit);
 *   2. single-flight — concurrent identical requests join the one
 *      in-flight computation instead of queueing their own;
 *   3. admission — at most `workers` computations run at once and at
 *      most `queueDepth` more may wait; beyond that the request is
 *      rejected *immediately* with ErrorCode::Saturated. The queue is
 *      bounded by construction: saturation is a typed answer, never an
 *      ever-growing backlog.
 *
 * Each computation runs on the connection's own thread (its SweepRunner
 * gets `jobThreads` workers), with the request's cooperative cell
 * deadline bounding its cost; every socket is written only by its own
 * connection thread, so PROGRESS events ("queued", "computing") and
 * the terminal frame never interleave.
 *
 * Everything observable — connections, per-type request counts, memo
 * traffic, saturation and timeout rejections, request latency — feeds
 * the obs Registry under the serve.* namespace, and every computed
 * response is stamped with the RunManifest (manifest.* payload keys)
 * so a recommendation can be traced to the binary that produced it.
 * docs/SERVICE.md is the operator-facing specification of all of it.
 */

#ifndef CAC_SERVE_SERVER_HH
#define CAC_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "obs/manifest.hh"
#include "serve/memo_cache.hh"
#include "serve/protocol.hh"

namespace cac::serve
{

/** Server tuning knobs (cac_serve flags map onto these 1:1). */
struct ServeConfig
{
    unsigned short port = 0;   ///< 0 = kernel-assigned ephemeral port
    unsigned workers = 2;      ///< concurrent advisor computations
    unsigned queueDepth = 8;   ///< admitted waiters beyond the workers
    unsigned jobThreads = 1;   ///< SweepRunner threads per computation
    std::size_t memoBytes = 8u << 20; ///< memo cache byte budget
    /** Cell deadline applied when a request does not set its own. */
    unsigned defaultDeadlineMs = 60 * 1000;
};

/**
 * Bounded admission: acquire() either grants a computation slot
 * (possibly after waiting in the bounded queue) or returns false
 * immediately when the queue is full. stop() drains waiters with a
 * rejection so shutdown never deadlocks.
 */
class Admission
{
  public:
    Admission(unsigned workers, unsigned queue_depth);

    /** Grant a slot, wait bounded, or reject (false = saturated). */
    bool acquire();
    void release();
    void stop();

    unsigned running() const;
    unsigned waiting() const;

  private:
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    const unsigned workers_;
    const unsigned queueDepth_;
    unsigned running_ = 0;
    unsigned waiting_ = 0;
    bool stopping_ = false;
};

/** The advisor service (see the file comment for the architecture). */
class Server
{
  public:
    explicit Server(ServeConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind 127.0.0.1, listen, and start the accept thread. Returns
     * OpenFailed (with the errno text) when the port is taken.
     */
    Error start();

    /** The bound port (resolves port 0 to the kernel's choice). */
    unsigned short port() const { return port_; }

    /** Block until a SHUTDOWN request (or stop()) ends the service. */
    void wait();

    /** Stop accepting, unblock every connection, join all threads. */
    void stop();

    /** Memo-cache occupancy/traffic (tests and the STATS handler). */
    MemoCache::Stats memoStats() const { return memo_.stats(); }

    /** Computations actually executed (single-flight leaders). */
    std::uint64_t searchesExecuted() const
    {
        return flights_.executions();
    }

  private:
    void acceptLoop();
    void handleConnection(int fd);
    /** One request frame; false ends the connection. */
    bool handleFrame(int fd, const Frame &frame);
    void handleAdvice(int fd, const Frame &frame);
    Error sendError(int fd, std::uint32_t request_id,
                    const Error &error);
    std::string statsPayload();
    std::string manifestLines(const std::string &workload);

    ServeConfig config_;
    obs::RunManifest manifest_;
    unsigned short port_ = 0;
    /** Listening socket; read by the accept thread, taken by stop(). */
    std::atomic<int> listenFd_{-1};
    std::atomic<bool> stopping_{false};

    std::mutex lifecycleMutex_;
    std::condition_variable lifecycleCv_;

    std::thread acceptThread_;
    std::mutex connMutex_;
    std::vector<std::thread> connThreads_;
    std::map<int, bool> connFds_; ///< fd -> still open

    Admission admission_;
    MemoCache memo_;
    SingleFlight flights_;
};

} // namespace cac::serve

#endif // CAC_SERVE_SERVER_HH
