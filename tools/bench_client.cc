/**
 * @file
 * cac_bench_client: load generator and smoke driver for cac_serve.
 *
 * Opens N concurrent connections, issues a request mix against a
 * running server, and reports throughput (requests/s) plus p50/p99
 * latency — the numbers the CI service-smoke lane is built on.
 * Expectation flags turn it into an assertion harness:
 * --expect-memo-hit fails unless memoized results both appear and
 * answer at least kMemoSpeedup times faster than the cold computation,
 * --expect-saturated fails unless the server answered with a typed
 * `saturated` rejection, and --malformed sends deliberate garbage and
 * requires a typed `protocol` error back. Exit status is the verdict,
 * so CI scripts need no output parsing.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "serve/client.hh"

namespace
{

using namespace cac;
using Clock = std::chrono::steady_clock;

/**
 * --expect-memo-hit: a memo hit is a map lookup plus one loopback
 * round trip, so its median must sit at least this many times under
 * the fastest cold computation (hits have read thousands of times
 * faster on the CI workload).
 */
constexpr std::uint64_t kMemoSpeedup = 10;

void
usage()
{
    std::fprintf(
        stderr,
        "usage: cac_bench_client --port N | --port-file F [options]\n"
        "  --mode M            ping|analyze|recommend|stats "
        "(default ping)\n"
        "  --connections N     concurrent connections (default 1)\n"
        "  --requests N        requests per connection (default 1)\n"
        "  --workload S        mix label or atom "
        "(default mix:swim+tomcatv)\n"
        "  --org S             analyze organization "
        "(default a2-Hp-Sk)\n"
        "  --size N --block N --ways N   geometry overrides\n"
        "  --polys N --random N --top N  recommend search knobs\n"
        "  --seed N            base candidate seed (default 1)\n"
        "  --deadline-ms N     per-request deadline\n"
        "  --distinct          vary the seed per request (defeats "
        "memoization)\n"
        "  --expect-memo-hit   require memoized results, 10x faster "
        "than cold\n"
        "  --expect-saturated  require at least one typed saturation "
        "rejection\n"
        "  --malformed         send a garbage frame, require a "
        "'protocol' error\n"
        "  --shutdown          send SHUTDOWN after the workload\n"
        "\n"
        "protocol: docs/SERVICE.md\n");
    std::exit(1);
}

const char *
argValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for '%s'\n", argv[i]);
        usage();
    }
    return argv[++i];
}

/** One request's outcome, harvested across worker threads. */
struct Sample
{
    std::uint64_t micros = 0;
    bool ok = false;
    bool memoHit = false;
    std::string errorCode; ///< "saturated", "timeout", ... when !ok
};

struct Totals
{
    std::mutex mutex;
    std::vector<Sample> samples;
};

std::uint64_t
percentile(std::vector<std::uint64_t> sorted, double q)
{
    if (sorted.empty())
        return 0;
    const std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    unsigned short port = 0;
    std::string port_file;
    std::string mode = "ping";
    unsigned connections = 1;
    unsigned requests = 1;
    std::string workload = "mix:swim+tomcatv";
    std::string org = "a2-Hp-Sk";
    std::uint64_t size = 0, block = 0, ways = 0;
    std::uint64_t polys = 4, randoms = 2, top = 3;
    std::uint64_t seed = 1, deadline_ms = 0;
    bool distinct = false;
    bool expect_memo = false;
    bool expect_saturated = false;
    bool malformed = false;
    bool shutdown = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--port") {
            port = countFlag<unsigned short>(
                arg.c_str(), argValue(argc, argv, i));
        } else if (arg == "--port-file") {
            port_file = argValue(argc, argv, i);
        } else if (arg == "--mode") {
            mode = argValue(argc, argv, i);
        } else if (arg == "--connections") {
            connections = countFlag<unsigned>(
                arg.c_str(), argValue(argc, argv, i));
        } else if (arg == "--requests") {
            requests = countFlag<unsigned>(
                arg.c_str(), argValue(argc, argv, i));
        } else if (arg == "--workload") {
            workload = argValue(argc, argv, i);
        } else if (arg == "--org") {
            org = argValue(argc, argv, i);
        } else if (arg == "--size") {
            size = countFlag(arg.c_str(), argValue(argc, argv, i));
        } else if (arg == "--block") {
            block = countFlag(arg.c_str(), argValue(argc, argv, i));
        } else if (arg == "--ways") {
            ways = countFlag(arg.c_str(), argValue(argc, argv, i));
        } else if (arg == "--polys") {
            polys = countFlag(arg.c_str(), argValue(argc, argv, i));
        } else if (arg == "--random") {
            randoms = countFlag(arg.c_str(), argValue(argc, argv, i));
        } else if (arg == "--top") {
            top = countFlag(arg.c_str(), argValue(argc, argv, i));
        } else if (arg == "--seed") {
            seed = countFlag(arg.c_str(), argValue(argc, argv, i));
        } else if (arg == "--deadline-ms") {
            deadline_ms = countFlag(arg.c_str(), argValue(argc, argv, i));
        } else if (arg == "--distinct") {
            distinct = true;
        } else if (arg == "--expect-memo-hit") {
            expect_memo = true;
        } else if (arg == "--expect-saturated") {
            expect_saturated = true;
        } else if (arg == "--malformed") {
            malformed = true;
        } else if (arg == "--shutdown") {
            shutdown = true;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage();
        }
    }

    if (!port_file.empty()) {
        std::FILE *f = std::fopen(port_file.c_str(), "r");
        if (f == nullptr)
            fatal("cannot read --port-file '%s'", port_file.c_str());
        unsigned parsed = 0;
        if (std::fscanf(f, "%u", &parsed) != 1)
            fatal("'%s' does not contain a port number",
                  port_file.c_str());
        std::fclose(f);
        port = static_cast<unsigned short>(parsed);
    }
    if (port == 0)
        fatal("need --port or --port-file (see --help)");
    if (connections < 1 || requests < 1)
        fatal("--connections and --requests must be at least 1");

    int rc = 0;

    if (malformed) {
        serve::Client client;
        if (Error err = client.connectTo(port))
            fatal("%s", err.message().c_str());
        // 16 bytes of the wrong magic: a header-level violation.
        const serve::Reply reply = client.sendMalformed(
            std::string("GET / HTTP/1.1\r\n"));
        const auto kv = reply.kv();
        const auto code = kv.find("code");
        if (reply.transport || reply.type != serve::MsgType::ErrorMsg
            || code == kv.end() || code->second != "protocol") {
            std::fprintf(stderr,
                         "malformed-frame probe: expected a typed "
                         "'protocol' error, got %s\n",
                         reply.transport
                             ? reply.transport.message().c_str()
                             : reply.payload.c_str());
            rc = 1;
        } else {
            std::printf("malformed-frame probe: typed 'protocol' "
                        "error received\n");
        }
    }

    serve::MsgType type = serve::MsgType::Ping;
    if (mode == "ping")
        type = serve::MsgType::Ping;
    else if (mode == "analyze")
        type = serve::MsgType::Analyze;
    else if (mode == "recommend")
        type = serve::MsgType::Recommend;
    else if (mode == "stats")
        type = serve::MsgType::Stats;
    else
        fatal("unknown --mode '%s'", mode.c_str());

    Totals totals;
    std::atomic<unsigned> next_request{0};
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
            serve::Client client;
            if (Error err = client.connectTo(port)) {
                std::lock_guard<std::mutex> lock(totals.mutex);
                Sample s;
                s.errorCode = "connect";
                totals.samples.push_back(s);
                return;
            }
            for (unsigned r = 0; r < requests; ++r) {
                const unsigned n =
                    next_request.fetch_add(1,
                                           std::memory_order_relaxed);
                std::string payload;
                if (type == serve::MsgType::Analyze
                    || type == serve::MsgType::Recommend) {
                    payload += "workload=" + workload + "\n";
                    if (type == serve::MsgType::Analyze)
                        payload += "org=" + org + "\n";
                    if (size)
                        payload +=
                            "size=" + std::to_string(size) + "\n";
                    if (block)
                        payload +=
                            "block=" + std::to_string(block) + "\n";
                    if (ways && type == serve::MsgType::Recommend)
                        payload +=
                            "ways=" + std::to_string(ways) + "\n";
                    if (type == serve::MsgType::Recommend) {
                        payload +=
                            "polys=" + std::to_string(polys) + "\n";
                        payload += "random=" + std::to_string(randoms)
                                   + "\n";
                        payload += "top=" + std::to_string(top) + "\n";
                        const std::uint64_t request_seed =
                            distinct ? seed + n : seed;
                        payload += "seed="
                                   + std::to_string(request_seed)
                                   + "\n";
                    }
                    if (deadline_ms)
                        payload += "deadline_ms="
                                   + std::to_string(deadline_ms)
                                   + "\n";
                }
                const auto start = Clock::now();
                const serve::Reply reply =
                    client.request(type, payload);
                const auto micros = static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::microseconds>(Clock::now()
                                                   - start)
                        .count());
                Sample s;
                s.micros = micros;
                if (reply.transport) {
                    s.errorCode = "transport";
                } else if (reply.type == serve::MsgType::ErrorMsg) {
                    const auto kv = reply.kv();
                    const auto code = kv.find("code");
                    s.errorCode = code != kv.end() ? code->second
                                                   : "unknown";
                } else {
                    s.ok = true;
                    s.memoHit = reply.memoHit();
                }
                std::lock_guard<std::mutex> lock(totals.mutex);
                totals.samples.push_back(s);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    const double seconds =
        std::chrono::duration<double>(Clock::now() - t0).count();

    // Tally. Memoized and cold successes are reported separately so
    // the memo cache's latency edge is visible (and assertable).
    std::vector<std::uint64_t> all_us, memo_us, cold_us;
    unsigned ok = 0, errors = 0, memo_hits = 0, saturated = 0;
    for (const Sample &s : totals.samples) {
        if (s.ok) {
            ++ok;
            all_us.push_back(s.micros);
            if (s.memoHit) {
                ++memo_hits;
                memo_us.push_back(s.micros);
            } else {
                cold_us.push_back(s.micros);
            }
        } else {
            if (s.errorCode == "saturated")
                ++saturated;
            else
                ++errors;
        }
    }
    std::sort(all_us.begin(), all_us.end());
    std::sort(memo_us.begin(), memo_us.end());
    std::sort(cold_us.begin(), cold_us.end());

    std::printf("mode=%s connections=%u requests=%u ok=%u errors=%u "
                "memo_hits=%u saturated=%u\n",
                mode.c_str(), connections, requests, ok, errors,
                memo_hits, saturated);
    if (!all_us.empty()) {
        std::printf(
            "rps=%.1f p50_us=%llu p99_us=%llu min_us=%llu "
            "max_us=%llu\n",
            static_cast<double>(ok) / (seconds > 0 ? seconds : 1e-9),
            static_cast<unsigned long long>(percentile(all_us, 0.50)),
            static_cast<unsigned long long>(percentile(all_us, 0.99)),
            static_cast<unsigned long long>(all_us.front()),
            static_cast<unsigned long long>(all_us.back()));
    }
    if (!memo_us.empty() && !cold_us.empty()) {
        std::printf(
            "cold_min_us=%llu memo_p50_us=%llu\n",
            static_cast<unsigned long long>(cold_us.front()),
            static_cast<unsigned long long>(
                percentile(memo_us, 0.50)));
    }

    if (expect_memo) {
        if (memo_hits == 0) {
            std::fprintf(stderr,
                         "expectation failed: no memoized result "
                         "observed\n");
            rc = 1;
        } else if (!cold_us.empty()
                   && percentile(memo_us, 0.50) * kMemoSpeedup
                          > cold_us.front()) {
            std::fprintf(stderr,
                         "expectation failed: memoized p50 %llu us "
                         "is not %llux below the fastest cold request "
                         "(%llu us)\n",
                         static_cast<unsigned long long>(
                             percentile(memo_us, 0.50)),
                         static_cast<unsigned long long>(kMemoSpeedup),
                         static_cast<unsigned long long>(
                             cold_us.front()));
            rc = 1;
        }
    }
    if (expect_saturated && saturated == 0) {
        std::fprintf(stderr,
                     "expectation failed: no 'saturated' rejection "
                     "observed\n");
        rc = 1;
    }
    if (errors > 0 && !expect_saturated) {
        // Unexpected failures (saturation under --expect-saturated is
        // the *point*, so only stray errors flip the verdict there).
        rc = 1;
    }

    if (shutdown) {
        serve::Client client;
        if (Error err = client.connectTo(port)) {
            std::fprintf(stderr, "shutdown: %s\n",
                         err.message().c_str());
            rc = 1;
        } else {
            const serve::Reply reply = client.shutdownServer();
            if (!reply.ok()) {
                std::fprintf(stderr, "shutdown request failed\n");
                rc = 1;
            }
        }
    }
    return rc;
}
