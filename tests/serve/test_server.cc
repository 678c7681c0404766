/**
 * @file
 * End-to-end advisor-service tests over real loopback sockets: every
 * message type, memoized repeats (flagged and counted), single-flight
 * deduplication under concurrency, deterministic saturation
 * rejection, typed deadline and protocol errors, and clean shutdown;
 * plus in-process RECOMMEND checks that a mix is searched under its
 * switch policy.
 */

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/index_search.hh"
#include "obs/metrics.hh"
#include "serve/advisor.hh"
#include "serve/client.hh"
#include "serve/server.hh"

namespace cac::serve
{
namespace
{

/** A small-but-real recommend request (fast; ~10 candidates). */
const char *const kRecommendPayload =
    "workload=mix:swim\n"
    "polys=2\n"
    "random=1\n"
    "top=3\n";

ServeConfig
testConfig()
{
    ServeConfig config;
    config.port = 0; // kernel-assigned; tests read server.port()
    config.workers = 2;
    config.queueDepth = 4;
    return config;
}

/** Start a server or fail the test with the bind diagnostic. */
class ServerFixture : public ::testing::Test
{
  protected:
    void startServer(ServeConfig config)
    {
        server = std::make_unique<Server>(config);
        const Error err = server->start();
        ASSERT_FALSE(err) << err.message();
    }

    Client connectedClient()
    {
        Client client;
        const Error err = client.connectTo(server->port());
        EXPECT_FALSE(err) << err.message();
        return client;
    }

    std::unique_ptr<Server> server;
};

TEST_F(ServerFixture, PingPongEchoesPayload)
{
    startServer(testConfig());
    Client client = connectedClient();
    const Reply reply = client.request(MsgType::Ping, "hello=1\n");
    ASSERT_FALSE(reply.transport) << reply.transport.message();
    EXPECT_EQ(reply.type, MsgType::Pong);
    EXPECT_EQ(reply.payload, "hello=1\n");
}

TEST_F(ServerFixture, RecommendThenMemoHit)
{
    startServer(testConfig());
    Client client = connectedClient();
    const std::uint64_t hits_before =
        obs::Registry::global().snapshot().counter("serve.memo.hits");

    const Reply cold =
        client.request(MsgType::Recommend, kRecommendPayload);
    ASSERT_TRUE(cold.ok()) << cold.payload;
    EXPECT_FALSE(cold.memoHit());
    ASSERT_GE(cold.progress.size(), 2u) << "queued + computing";
    EXPECT_EQ(cold.progress[0], "state=queued\n");
    EXPECT_EQ(cold.progress[1], "state=computing\n");

    auto kv = cold.kv();
    EXPECT_FALSE(kv["best"].empty());
    EXPECT_EQ(kv["workload"],
              "mix:swim@q=50000,n=120000,phase=0,asid=2097152,seed=1,"
              "keep");
    // Every computed response is stamped with the run manifest.
    EXPECT_EQ(kv["manifest.tool"], "cac_serve");
    EXPECT_FALSE(kv["manifest.git_describe"].empty());

    const Reply hit =
        client.request(MsgType::Recommend, kRecommendPayload);
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit.memoHit());
    EXPECT_TRUE(hit.progress.empty()) << "hits skip the queue";
    EXPECT_EQ(hit.payload, cold.payload) << "byte-identical replay";

    EXPECT_EQ(server->memoStats().hits, 1u);
    EXPECT_EQ(
        obs::Registry::global().snapshot().counter("serve.memo.hits"),
        hits_before + 1);
}

TEST_F(ServerFixture, EquivalentSpellingsShareOneMemoEntry)
{
    startServer(testConfig());
    Client client = connectedClient();
    const Reply cold = client.request(
        MsgType::Recommend,
        "workload=mix:swim@q=50k,n=120k\npolys=2\nrandom=1\ntop=3\n");
    ASSERT_TRUE(cold.ok()) << cold.payload;
    // Same request, reordered options, no suffix shorthand.
    const Reply hit = client.request(
        MsgType::Recommend,
        "workload=mix:swim@n=120000,q=50000\ntop=3\nrandom=1\n"
        "polys=2\n");
    ASSERT_TRUE(hit.ok()) << hit.payload;
    EXPECT_TRUE(hit.memoHit());
    EXPECT_EQ(server->searchesExecuted(), 1u);
}

TEST_F(ServerFixture, ConcurrentIdenticalRequestsComputeOnce)
{
    ServeConfig config = testConfig();
    config.workers = 4;
    startServer(config);

    constexpr int kClients = 6;
    std::atomic<int> ready{0};
    std::atomic<int> ok{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i) {
        threads.emplace_back([&] {
            Client client;
            if (client.connectTo(server->port()))
                return;
            ready.fetch_add(1);
            while (ready.load() < kClients)
                std::this_thread::yield();
            const Reply reply =
                client.request(MsgType::Recommend, kRecommendPayload);
            if (reply.ok())
                ok.fetch_add(1);
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(ok.load(), kClients);
    // The heart of the test: N identical in-flight requests, one
    // computation. Latecomers hit the memo; overlappers joined the
    // flight; either way nothing computed twice.
    EXPECT_EQ(server->searchesExecuted(), 1u);
}

TEST_F(ServerFixture, SaturationIsATypedRejection)
{
    ServeConfig config = testConfig();
    config.workers = 1;
    config.queueDepth = 0;
    startServer(config);

    // Drive request A only as far as its "computing" progress event,
    // so the worker slot is *provably* held when B arrives.
    Client a = connectedClient();
    ASSERT_FALSE(sendFrame(a.fd(), MsgType::Recommend, 0, 1,
                           "workload=mix:swim@n=500k\npolys=2\n"
                           "random=1\nseed=11\n"));
    for (int state = 0; state < 2; ++state) {
        Frame frame;
        ASSERT_FALSE(recvFrame(a.fd(), frame));
        ASSERT_EQ(frame.header.type, MsgType::Progress);
    }

    Client b = connectedClient();
    const Reply rejected = b.request(
        MsgType::Recommend,
        "workload=mix:swim@n=500k\npolys=2\nrandom=1\nseed=22\n");
    ASSERT_FALSE(rejected.transport);
    EXPECT_EQ(rejected.type, MsgType::ErrorMsg);
    auto kv = rejected.kv();
    EXPECT_EQ(kv["code"], "saturated");

    // A still completes: rejection shed load without breaking it.
    Frame result;
    ASSERT_FALSE(recvFrame(a.fd(), result));
    EXPECT_EQ(result.header.type, MsgType::Result);
    EXPECT_GE(obs::Registry::global().snapshot().counter(
                  "serve.errors.saturated"),
              1u);
}

TEST_F(ServerFixture, BlownDeadlineIsATypedTimeout)
{
    startServer(testConfig());
    Client client = connectedClient();
    const Reply reply = client.request(
        MsgType::Recommend,
        "workload=mix:swim@n=1m\npolys=2\nrandom=1\ndeadline_ms=1\n");
    ASSERT_FALSE(reply.transport);
    ASSERT_EQ(reply.type, MsgType::ErrorMsg) << reply.payload;
    EXPECT_EQ(reply.kv()["code"], "timeout");
    // Failures are not memoized: the entry would poison retries.
    EXPECT_EQ(server->memoStats().entries, 0u);
}

TEST_F(ServerFixture, MalformedFrameGetsProtocolErrorThenDisconnect)
{
    startServer(testConfig());
    Client client = connectedClient();
    const Reply reply =
        client.sendMalformed("GET /advice HTTP/1.1\r\nHost: x\r\n");
    ASSERT_FALSE(reply.transport) << reply.transport.message();
    EXPECT_EQ(reply.type, MsgType::ErrorMsg);
    EXPECT_EQ(reply.kv()["code"], "protocol");
}

TEST_F(ServerFixture, BadRequestKeepsTheConnectionUsable)
{
    startServer(testConfig());
    Client client = connectedClient();
    const Reply bad = client.request(
        MsgType::Recommend, "workload=mix:unknown-program\n");
    ASSERT_FALSE(bad.transport);
    EXPECT_EQ(bad.type, MsgType::ErrorMsg);
    EXPECT_EQ(bad.kv()["code"], "protocol");

    // Unlike a framing violation, a payload-level error is
    // recoverable: the next request on the same connection works.
    const Reply pong = client.ping();
    EXPECT_EQ(pong.type, MsgType::Pong);
}

TEST_F(ServerFixture, TraceAtomsAreRefused)
{
    startServer(testConfig());
    Client client = connectedClient();
    const Reply reply = client.request(
        MsgType::Recommend, "workload=mix:trace:/etc/passwd\n");
    ASSERT_FALSE(reply.transport);
    EXPECT_EQ(reply.type, MsgType::ErrorMsg);
    EXPECT_EQ(reply.kv()["code"], "protocol");
}

TEST_F(ServerFixture, OversizedWorkloadIsATypedBadRequest)
{
    // n= is capped per program before anything is built; the cap
    // itself still parses.
    AdvisorRequest request;
    EXPECT_FALSE(parseAdvisorRequest(
        MsgType::Recommend, {{"workload", "mix:swim@n=4m"}}, request));
    EXPECT_EQ(request.workload.config.programRecords, kMaxWorkloadRecords);

    startServer(testConfig());
    Client client = connectedClient();
    for (const char *workload :
         {"mix:swim@n=4000001", "mix:gcc+stride512@n=5m"}) {
        const Reply reply = client.request(
            MsgType::Recommend, std::string("workload=") + workload + "\n");
        ASSERT_FALSE(reply.transport);
        EXPECT_EQ(reply.type, MsgType::ErrorMsg) << workload;
        EXPECT_EQ(reply.kv()["code"], "protocol") << workload;
        EXPECT_NE(reply.kv()["message"].find("record cap"),
                  std::string::npos)
            << workload;
    }
    EXPECT_EQ(client.ping().type, MsgType::Pong);
}

TEST_F(ServerFixture, AnalyzeReportsPerProgramAttribution)
{
    startServer(testConfig());
    Client client = connectedClient();
    const Reply reply = client.request(
        MsgType::Analyze,
        "workload=mix:swim+tomcatv@n=30k,q=10k\norg=a2-Hp-Sk\n");
    ASSERT_TRUE(reply.ok()) << reply.payload;
    auto kv = reply.kv();
    EXPECT_EQ(kv["org"], "a2-Hp-Sk");
    EXPECT_EQ(kv["programs"], "2");
    EXPECT_EQ(kv["program.0.name"], "swim");
    EXPECT_EQ(kv["program.1.name"], "tomcatv");
    EXPECT_FALSE(kv["miss_pct"].empty());
    EXPECT_EQ(kv["manifest.tool"], "cac_serve");
}

/** RECOMMEND on @p workload, computed in-process; the parsed payload. */
std::map<std::string, std::string>
recommend(const std::string &workload, AdvisorRequest &request)
{
    const Error err = parseAdvisorRequest(
        MsgType::Recommend,
        {{"workload", workload}, {"polys", "2"}, {"random", "1"},
         {"top", "3"}},
        request);
    EXPECT_FALSE(err) << err.message();
    std::map<std::string, std::string> kv;
    EXPECT_FALSE(kvParse(computeAdvice(request, 2), kv));
    return kv;
}

constexpr const char *kTwoProgramMix = "mix:swim+tomcatv@n=30k,q=10k";

TEST(AdvisorRecommend, KeepMixRanksAsBefore)
{
    // Pinned from the flat-trace search this replaces: a keep mix
    // replays the same stream, so the ranking cannot move.
    AdvisorRequest request;
    auto kv = recommend(kTwoProgramMix, request);
    EXPECT_EQ(kv["best"], "hx-sk");
    EXPECT_EQ(kv["result.0.conflict_misses"], "75");
    EXPECT_EQ(kv["result.0.misses"], "2898");
    EXPECT_EQ(kv["result.1.label"], "hp[1]");
    EXPECT_EQ(kv["result.1.conflict_misses"], "106");
    EXPECT_EQ(kv["result.2.label"], "hp[0]");
    EXPECT_EQ(kv["result.2.conflict_misses"], "121");
}

TEST(AdvisorRecommend, FlushMixIsFlushedAtEverySwitch)
{
    AdvisorRequest keep_request;
    const auto keep = recommend(kTwoProgramMix, keep_request);
    AdvisorRequest request;
    auto kv = recommend(std::string(kTwoProgramMix) + ",flush", request);

    // The served ranking is the scenario search's, switch policy and
    // all...
    SearchConfig config;
    config.geometry = CacheGeometry(request.sizeBytes,
                                    request.blockBytes, request.ways);
    config.inputBits = request.inputBits;
    config.polyStarts = request.polyStarts;
    config.randomSeeds = request.randomSeeds;
    config.seed = request.seed;
    config.includeBaselines = request.includeBaselines;
    const std::vector<SearchResult> want = IndexSearch(config).run(
        std::make_shared<const Scenario>(request.workload));
    ASSERT_GE(want.size(), 3u);
    EXPECT_EQ(kv["best"], want[0].label);
    for (std::size_t i = 0; i < 3; ++i) {
        const std::string prefix = "result." + std::to_string(i) + ".";
        EXPECT_EQ(kv[prefix + "label"], want[i].label) << i;
        EXPECT_EQ(kv[prefix + "conflict_misses"],
                  std::to_string(want[i].conflictMisses))
            << i;
        EXPECT_EQ(kv[prefix + "misses"],
                  std::to_string(want[i].stats.misses()))
            << i;
    }
    // ...and the flushes show: the same records, replayed cold after
    // every switch, rank differently than the warm-keep replay.
    EXPECT_NE(kv["result.0.conflict_misses"],
              keep.at("result.0.conflict_misses"));
    EXPECT_NE(kv["result.1.label"], keep.at("result.1.label"));
}

TEST_F(ServerFixture, StatsExposeAdmissionAndMemoState)
{
    startServer(testConfig());
    Client client = connectedClient();
    const Reply reply = client.stats();
    ASSERT_TRUE(reply.ok());
    auto kv = reply.kv();
    EXPECT_EQ(kv["workers"], "2");
    EXPECT_EQ(kv["queue_depth"], "4");
    EXPECT_EQ(kv["memo.entries"], "0");
    EXPECT_FALSE(kv["memo.budget"].empty());
}

TEST_F(ServerFixture, ShutdownRequestEndsWait)
{
    startServer(testConfig());
    std::thread waiter([&] { server->wait(); });
    Client client = connectedClient();
    const Reply reply = client.shutdownServer();
    EXPECT_TRUE(reply.ok());
    waiter.join(); // hangs forever if SHUTDOWN does not end wait()
}

} // anonymous namespace
} // namespace cac::serve
