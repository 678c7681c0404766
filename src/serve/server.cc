#include "serve/server.hh"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "obs/obs.hh"
#include "serve/advisor.hh"

namespace cac::serve
{

namespace
{

using Kv = std::vector<std::pair<std::string, std::string>>;

std::uint64_t
nowMicros()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

obs::Counter
serveCounter(const char *name)
{
    return obs::Registry::global().counter(name);
}

} // anonymous namespace

Admission::Admission(unsigned workers, unsigned queue_depth)
    : workers_(workers == 0 ? 1 : workers), queueDepth_(queue_depth)
{}

bool
Admission::acquire()
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_)
        return false;
    if (running_ < workers_) {
        ++running_;
        return true;
    }
    if (waiting_ >= queueDepth_)
        return false; // the bounded queue is full: reject, don't wait
    ++waiting_;
    cv_.wait(lock, [&] { return running_ < workers_ || stopping_; });
    --waiting_;
    if (stopping_)
        return false;
    ++running_;
    return true;
}

void
Admission::release()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        CAC_ASSERT(running_ > 0);
        --running_;
    }
    cv_.notify_one();
}

void
Admission::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
}

unsigned
Admission::running() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return running_;
}

unsigned
Admission::waiting() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return waiting_;
}

Server::Server(ServeConfig config)
    : config_(config),
      manifest_(obs::buildRunManifest("cac_serve")),
      admission_(config.workers, config.queueDepth),
      memo_(config.memoBytes)
{
    manifest_.threads = config_.jobThreads;
    // The serve.* counters are the service's operational surface;
    // they must count even when no --metrics-out was requested.
    obs::Registry::global().setEnabled(true);
}

Server::~Server()
{
    stop();
}

Error
Server::start()
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        return Error::make(ErrorCode::OpenFailed,
                           std::string("socket: ")
                               + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(config_.port);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) != 0) {
        Error err = Error::make(ErrorCode::OpenFailed,
                                std::string("bind 127.0.0.1:")
                                    + std::to_string(config_.port)
                                    + ": " + std::strerror(errno));
        ::close(fd);
        return err;
    }
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    if (::listen(fd, 64) != 0) {
        Error err = Error::make(ErrorCode::OpenFailed,
                                std::string("listen: ")
                                    + std::strerror(errno));
        ::close(fd);
        return err;
    }
    listenFd_.store(fd);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return Error();
}

void
Server::acceptLoop()
{
    static obs::Counter connections = serveCounter("serve.connections");
    while (!stopping_.load(std::memory_order_relaxed)) {
        const int fd = ::accept(listenFd_.load(), nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break; // listener closed (shutdown) or broken
        }
        CAC_OBS_COUNT(connections, 1);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        std::lock_guard<std::mutex> lock(connMutex_);
        if (stopping_.load(std::memory_order_relaxed)) {
            ::close(fd);
            break;
        }
        connFds_[fd] = true;
        connThreads_.emplace_back(
            [this, fd] { handleConnection(fd); });
    }
}

void
Server::handleConnection(int fd)
{
    for (;;) {
        Frame frame;
        Error err = recvFrame(fd, frame);
        if (err) {
            // A clean disconnect is routine; anything else is a
            // protocol violation answered once, then the connection
            // is dropped (framing is unrecoverable after bad bytes).
            if (err.code == ErrorCode::Protocol) {
                static obs::Counter protocol_errors =
                    serveCounter("serve.errors.protocol");
                CAC_OBS_COUNT(protocol_errors, 1);
                sendError(fd, 0, err);
            }
            break;
        }
        if (!isRequestType(frame.header.type)) {
            static obs::Counter protocol_errors =
                serveCounter("serve.errors.protocol");
            CAC_OBS_COUNT(protocol_errors, 1);
            sendError(fd, frame.header.requestId,
                      Error::make(ErrorCode::Protocol,
                                  std::string("'")
                                      + msgTypeName(frame.header.type)
                                      + "' is not a request type"));
            break;
        }
        if (!handleFrame(fd, frame))
            break;
    }
    ::close(fd);
    std::lock_guard<std::mutex> lock(connMutex_);
    connFds_[fd] = false;
}

bool
Server::handleFrame(int fd, const Frame &frame)
{
    static obs::Counter requests = serveCounter("serve.requests");
    static obs::Histogram request_us =
        obs::Registry::global().histogram("serve.request_us");
    CAC_OBS_COUNT(requests, 1);
    const std::uint64_t start_us = nowMicros();
    const std::uint32_t id = frame.header.requestId;

    switch (frame.header.type) {
      case MsgType::Ping: {
        static obs::Counter pings = serveCounter("serve.requests.ping");
        CAC_OBS_COUNT(pings, 1);
        sendFrame(fd, MsgType::Pong, 0, id, frame.payload);
        break;
      }
      case MsgType::Stats: {
        static obs::Counter stats =
            serveCounter("serve.requests.stats");
        CAC_OBS_COUNT(stats, 1);
        sendFrame(fd, MsgType::Result, 0, id, statsPayload());
        break;
      }
      case MsgType::Shutdown: {
        static obs::Counter shutdowns =
            serveCounter("serve.requests.shutdown");
        CAC_OBS_COUNT(shutdowns, 1);
        sendFrame(fd, MsgType::Result, 0, id, "ok=1\n");
        // Wake wait(); the waiter performs the actual teardown (this
        // thread cannot join itself).
        stopping_.store(true, std::memory_order_relaxed);
        lifecycleCv_.notify_all();
        return false;
      }
      case MsgType::Analyze:
      case MsgType::Recommend:
        handleAdvice(fd, frame);
        break;
      default:
        return false; // unreachable: isRequestType() screened
    }
    CAC_OBS_OBSERVE(request_us, nowMicros() - start_us);
    return true;
}

void
Server::handleAdvice(int fd, const Frame &frame)
{
    static obs::Counter analyzes =
        serveCounter("serve.requests.analyze");
    static obs::Counter recommends =
        serveCounter("serve.requests.recommend");
    static obs::Counter results = serveCounter("serve.results");
    static obs::Counter saturations =
        serveCounter("serve.errors.saturated");
    static obs::Counter timeouts = serveCounter("serve.errors.timeout");
    static obs::Counter request_errors =
        serveCounter("serve.errors.request");

    const std::uint32_t id = frame.header.requestId;
    CAC_OBS_COUNT(
        frame.header.type == MsgType::Analyze ? analyzes : recommends,
        1);

    std::map<std::string, std::string> kv;
    if (Error err = kvParse(frame.payload, kv)) {
        // The frame itself was well-formed, so the connection
        // survives a bad payload.
        CAC_OBS_COUNT(request_errors, 1);
        sendError(fd, id, err);
        return;
    }
    AdvisorRequest request;
    if (Error err =
            parseAdvisorRequest(frame.header.type, kv, request)) {
        CAC_OBS_COUNT(request_errors, 1);
        sendError(fd, id, err);
        return;
    }
    if (request.deadlineMs == 0)
        request.deadlineMs = config_.defaultDeadlineMs;

    const std::string key = canonicalKey(request);
    std::string payload;
    if (memo_.get(key, payload)) {
        sendFrame(fd, MsgType::Result, kFlagMemoHit, id, payload);
        CAC_OBS_COUNT(results, 1);
        return;
    }

    sendFrame(fd, MsgType::Progress, 0, id, "state=queued\n");
    try {
        payload = flights_.runOrJoin(key, [&] {
            // Leader path: this runs on *this* connection's thread,
            // so the PROGRESS write below cannot interleave with
            // another connection's frames. Joiners skip admission —
            // they consume no computation slot.
            if (!admission_.acquire())
                throw CacError(Error::make(
                    ErrorCode::Saturated,
                    "admission queue full ("
                        + std::to_string(config_.workers)
                        + " workers, "
                        + std::to_string(config_.queueDepth)
                        + " queued); retry later"));
            sendFrame(fd, MsgType::Progress, 0, id,
                      "state=computing\n");
            std::string computed;
            try {
                computed = computeAdvice(request, config_.jobThreads);
            } catch (...) {
                admission_.release();
                throw;
            }
            admission_.release();
            computed +=
                manifestLines(canonicalWorkload(request.workload));
            memo_.put(key, computed);
            return computed;
        });
    } catch (const CacError &err) {
        if (err.err().code == ErrorCode::Saturated)
            CAC_OBS_COUNT(saturations, 1);
        else if (err.err().code == ErrorCode::Timeout)
            CAC_OBS_COUNT(timeouts, 1);
        else
            CAC_OBS_COUNT(request_errors, 1);
        sendError(fd, id, err.err());
        return;
    }
    sendFrame(fd, MsgType::Result, 0, id, payload);
    CAC_OBS_COUNT(results, 1);
}

Error
Server::sendError(int fd, std::uint32_t request_id, const Error &error)
{
    const Kv payload = {
        {"code", errorCodeName(error.code)},
        {"message", error.message()},
    };
    return sendFrame(fd, MsgType::ErrorMsg, 0, request_id,
                     kvRender(payload));
}

std::string
Server::statsPayload()
{
    const obs::MetricsSnapshot snap =
        obs::Registry::global().snapshot();
    const MemoCache::Stats memo = memo_.stats();
    Kv out;
    out.emplace_back("workers", std::to_string(config_.workers));
    out.emplace_back("queue_depth",
                     std::to_string(config_.queueDepth));
    out.emplace_back("running", std::to_string(admission_.running()));
    out.emplace_back("waiting", std::to_string(admission_.waiting()));
    out.emplace_back("memo.entries", std::to_string(memo.entries));
    out.emplace_back("memo.bytes", std::to_string(memo.bytes));
    out.emplace_back("memo.budget", std::to_string(memo.budget));
    out.emplace_back("memo.hits", std::to_string(memo.hits));
    out.emplace_back("memo.misses", std::to_string(memo.misses));
    out.emplace_back("memo.evictions",
                     std::to_string(memo.evictions));
    for (const auto &[name, value] : snap.counters) {
        if (name.rfind("serve.", 0) == 0)
            out.emplace_back(name, std::to_string(value));
    }
    std::string payload = kvRender(out);
    payload += manifestLines(std::string());
    return payload;
}

std::string
Server::manifestLines(const std::string &workload)
{
    Kv out;
    out.emplace_back("manifest.tool", manifest_.tool);
    out.emplace_back("manifest.git_describe", manifest_.gitDescribe);
    out.emplace_back("manifest.compiler", manifest_.compiler);
    out.emplace_back("manifest.build_type", manifest_.buildType);
    out.emplace_back("manifest.obs_compiled",
                     manifest_.obsCompiled ? "1" : "0");
    out.emplace_back("manifest.simd_dispatch", manifest_.simdDispatch);
    out.emplace_back("manifest.metrics_schema",
                     std::to_string(manifest_.metricsSchema));
    out.emplace_back("manifest.trace_schema",
                     std::to_string(manifest_.traceSchema));
    out.emplace_back("manifest.trace_container",
                     manifest_.traceContainer);
    out.emplace_back("manifest.threads",
                     std::to_string(manifest_.threads));
    if (!workload.empty())
        out.emplace_back("manifest.workload", workload);
    return kvRender(out);
}

void
Server::wait()
{
    std::unique_lock<std::mutex> lock(lifecycleMutex_);
    lifecycleCv_.wait(lock, [&] {
        return stopping_.load(std::memory_order_relaxed);
    });
    lock.unlock();
    stop();
}

void
Server::stop()
{
    stopping_.store(true, std::memory_order_relaxed);
    lifecycleCv_.notify_all();
    admission_.stop();
    // Take the listening socket exactly once: shutdown wakes a blocked
    // accept(), and the descriptor is closed only after the accept
    // thread is gone, so its number cannot be reused under it.
    const int listen_fd = listenFd_.exchange(-1);
    if (listen_fd >= 0)
        ::shutdown(listen_fd, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listen_fd >= 0)
        ::close(listen_fd);
    {
        // Unblock reads; each connection thread closes its own fd.
        std::lock_guard<std::mutex> lock(connMutex_);
        for (const auto &[fd, open] : connFds_) {
            if (open)
                ::shutdown(fd, SHUT_RDWR);
        }
    }
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        threads.swap(connThreads_);
    }
    for (std::thread &t : threads) {
        if (t.joinable())
            t.join();
    }
}

} // namespace cac::serve
