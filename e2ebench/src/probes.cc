/**
 * @file
 * The per-layer probe battery: direct calls into each layer's public
 * functions on the workload's own inputs. A traced run sets the
 * metrics its own path measured first; the probes fill only what is
 * still missing, so every per-layer metric exists on every workload.
 */

#include <filesystem>
#include <functional>
#include <map>

#include "core/registry.hh"
#include "index/factory.hh"
#include "index/index_plan.hh"
#include "obs/metrics.hh"
#include "serve/advisor.hh"
#include "serve/client.hh"
#include "serve/memo_cache.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "trace/io.hh"
#include "workloads.hh"
#include "wrappers.hh"

namespace e2e
{

namespace
{

const std::vector<std::string> kOrgs = {
    "dm",    "a2",       "a4",     "a2-Hx-Sk",    "a2-Hp",
    "a2-Hp-Sk", "victim", "hash-rehash", "column-poly", "full"};

/** Minimum measured time per probe (repeated until reached). */
constexpr double kProbeSeconds = 0.25;
constexpr int kMinReps = 3;

/**
 * Repeat @p sample until kProbeSeconds have passed and at least
 * kMinReps ran; the median of its values.
 */
double
repeatMedian(const std::function<double()> &sample)
{
    std::vector<double> values;
    const Clock::time_point start = Clock::now();
    while (values.size() < static_cast<std::size_t>(kMinReps)
           || secondsBetween(start, Clock::now()) < kProbeSeconds)
        values.push_back(sample());
    return median(values);
}

/**
 * Median host ns per unit of work of @p body, which returns the units
 * it did (see repeatMedian()).
 */
double
nsPerUnit(const std::function<std::uint64_t()> &body)
{
    return repeatMedian([&] {
        const Clock::time_point t0 = Clock::now();
        const std::uint64_t units = body();
        const double ns =
            static_cast<double>(nanosBetween(t0, Clock::now()));
        return ns / static_cast<double>(units ? units : 1);
    });
}

/** One same-kind run of memory accesses, as MemRunGatherer cuts it. */
struct Run
{
    std::size_t offset = 0;
    std::size_t length = 0;
    bool write = false;
};

struct Accesses
{
    std::vector<std::uint64_t> addrs;
    std::vector<Run> runs;
};

Accesses
accessesOf(const cac::Trace &trace)
{
    Accesses a;
    for (const cac::TraceRecord &r : trace) {
        if (!cac::isMemOp(r.op))
            continue;
        const bool w = r.op == cac::OpClass::Store;
        if (a.runs.empty() || a.runs.back().write != w
            || a.runs.back().length == cac::MemRunGatherer::kMaxRun) {
            a.runs.push_back(Run{a.addrs.size(), 0, w});
        }
        a.addrs.push_back(r.addr);
        ++a.runs.back().length;
    }
    return a;
}

bool
missingAny(const Outcome &out, const std::vector<std::string> &names)
{
    for (const std::string &n : names) {
        if (!out.has(n))
            return true;
    }
    return false;
}

void
setIfMissing(Outcome &out, const std::string &name, double value,
             const std::string &unit)
{
    if (!out.has(name))
        out.set(name, value, unit);
}

/** Replay @p trace into @p target in reader-sized chunks. */
void
replayChunked(const cac::Trace &trace, cac::SimTarget &target)
{
    constexpr std::size_t kChunk = cac::kDefaultTraceChunkRecords;
    for (std::size_t at = 0; at < trace.size(); at += kChunk)
        target.replay(trace.data() + at,
                      std::min(kChunk, trace.size() - at));
    target.finish();
}

void
probeIndex(const Accesses &a, Outcome &out)
{
    const std::vector<std::pair<std::string, cac::IndexKind>> schemes = {
        {"mod", cac::IndexKind::Modulo},
        {"Hx-Sk", cac::IndexKind::XorSkew},
        {"Hp", cac::IndexKind::IPoly},
        {"Hp-Sk", cac::IndexKind::IPolySkew}};
    // The paper's 8KB 2-way cache with 32-byte blocks: 128 sets.
    std::vector<std::uint64_t> blocks(a.addrs.size());
    for (std::size_t i = 0; i < blocks.size(); ++i)
        blocks[i] = a.addrs[i] >> 5;
    std::vector<std::uint64_t> packed(cac::MemRunGatherer::kMaxRun * 2);
    for (const auto &[name, kind] : schemes) {
        const std::string metric = "index.ns_per_access." + name;
        if (out.has(metric))
            continue;
        const auto fn = cac::makeIndexFn(kind, 7, 2, 14);
        const cac::IndexPlan plan = cac::compilePlan(*fn);
        const double ns = nsPerUnit([&] {
            ScopedSpan span("index", "indexBatch", name);
            constexpr std::size_t kBlock = cac::MemRunGatherer::kMaxRun;
            for (std::size_t at = 0; at < blocks.size(); at += kBlock) {
                const std::size_t n = std::min(kBlock, blocks.size() - at);
                if (plan.packedCapable())
                    plan.indexPackedBatch(blocks.data() + at, n,
                                          packed.data());
                else
                    plan.indexSetsBatch(blocks.data() + at, n,
                                        packed.data());
            }
            return static_cast<std::uint64_t>(blocks.size());
        });
        out.set(metric, ns, "ns");
    }
}

void
probeCache(const Accesses &a, Outcome &out)
{
    const cac::OrgSpec spec;
    for (const std::string &org : kOrgs) {
        const std::string metric = "cache.ns_per_access." + org;
        const std::string ratio = "sim.load_miss_ratio." + org;
        if (out.has(metric) && out.has(ratio))
            continue;
        cac::CacheStats first;
        bool have_first = false;
        const double ns = nsPerUnit([&] {
            auto model = cac::makeOrganization(org, spec);
            {
                ScopedSpan span("cache", "accessBatch", org);
                for (const Run &r : a.runs)
                    model->accessBatch(a.addrs.data() + r.offset, r.length,
                                       r.write);
            }
            if (!have_first) {
                first = model->stats();
                have_first = true;
            }
            return static_cast<std::uint64_t>(a.addrs.size());
        });
        setIfMissing(out, metric, ns, "ns");
        setIfMissing(out, ratio, first.loadMissRatio(), "ratio");
    }
}

void
probeGather(const cac::Trace &trace, Outcome &out)
{
    if (!missingAny(out, {"core.gather_ns_per_rec", "core.run_len"}))
        return;
    std::vector<double> gather;
    double run_len = 0;
    const Clock::time_point start = Clock::now();
    while (gather.size() < static_cast<std::size_t>(kMinReps)
           || secondsBetween(start, Clock::now()) < kProbeSeconds) {
        auto timed = std::make_unique<TimedModel>(
            cac::makeOrganization("a2-Hp-Sk", cac::OrgSpec{}));
        TimedModel *model = timed.get();
        cac::CacheTarget target(std::move(timed));
        ScopedSpan span("core", "replay", "a2-Hp-Sk");
        const Clock::time_point t0 = Clock::now();
        replayChunked(trace, target);
        const std::int64_t dt = nanosBetween(t0, Clock::now());
        SpanLog::global().addAggregate("cache", model->ns(), model->calls());
        gather.push_back(static_cast<double>(dt - model->ns())
                         / static_cast<double>(trace.size()));
        run_len = static_cast<double>(model->accesses())
            / static_cast<double>(model->calls());
    }
    setIfMissing(out, "core.gather_ns_per_rec", median(gather), "ns");
    setIfMissing(out, "core.run_len", run_len, "accesses");
}

void
probeHierarchy(const cac::Trace &trace, Outcome &out)
{
    for (const std::string l1 : {"a2", "a2-Hp-Sk"}) {
        const std::string metric = "hierarchy.ns_per_access." + l1;
        const std::string ratio = "sim.load_miss_ratio.2lvl-" + l1;
        if (out.has(metric) && out.has(ratio))
            continue;
        const std::string label = "2lvl:" + l1 + "/a4";
        double lmr = 0;
        const double ns = nsPerUnit([&] {
            auto target = cac::OrgRegistry::global().buildTarget(
                label, cac::TargetSpec{});
            {
                ScopedSpan span("hierarchy", "replay", label);
                replayChunked(trace, *target);
            }
            const cac::TargetStats s = target->stats();
            lmr = s.l1.loadMissRatio();
            return s.l1.accesses();
        });
        setIfMissing(out, metric, ns, "ns");
        setIfMissing(out, ratio, lmr, "ratio");
    }
}

void
probeScenario(const cac::Scenario &scenario, Outcome &out)
{
    if (missingAny(out, {"scenario.dispatch_ns_per_rec",
                         "scenario.segments", "scenario.switches"})) {
        std::uint64_t switches = 0;
        // replayInto()'s own time: its wall time minus the target's.
        const double ns = repeatMedian([&] {
            const auto target =
                buildTimedTarget("a2-Hp-Sk", cac::TargetSpec{}, false);
            ScopedSpan span("scenario", "replayInto", "a2-Hp-Sk");
            const Clock::time_point t0 = Clock::now();
            switches = scenario.replayInto(*target).switches;
            const std::int64_t dt = nanosBetween(t0, Clock::now());
            return static_cast<double>(dt - target->callNs())
                / static_cast<double>(scenario.composed().size());
        });
        setIfMissing(out, "scenario.dispatch_ns_per_rec", ns, "ns");
        setIfMissing(out, "scenario.segments",
                     static_cast<double>(scenario.schedule().size()),
                     "count");
        setIfMissing(out, "scenario.switches",
                     static_cast<double>(switches), "count");
    }

    for (const char *cores : {"1", "2", "4"}) {
        const std::string c = std::string("c") + cores;
        const std::string metric = "multicore.ns_per_access." + c;
        if (out.has(metric))
            continue;
        const std::string label =
            std::string("mc:") + cores + "xa2-Hp-Sk/a4";
        cac::TargetStats stats;
        // Time inside the target per access, dispatch excluded.
        const double ns = repeatMedian([&] {
            const auto target =
                buildTimedTarget(label, cac::TargetSpec{}, false);
            {
                ScopedSpan span("scenario", "replayInto", label);
                scenario.replayInto(*target);
                target->finish();
            }
            stats = target->stats();
            return static_cast<double>(target->callNs())
                / static_cast<double>(stats.l1.accesses());
        });
        setIfMissing(out, metric, ns, "ns");
        setIfMissing(out, std::string("sim.load_miss_ratio.mc") + cores,
                     stats.l1.loadMissRatio(), "ratio");
        if (c != "c1") {
            setIfMissing(out, "multicore.interventions." + c,
                         static_cast<double>(stats.mc.interventions),
                         "count");
            setIfMissing(out, "multicore.invalidations." + c,
                         static_cast<double>(stats.mc.invalidationMessages),
                         "count");
            setIfMissing(
                out, "multicore.intercore_evictions." + c,
                static_cast<double>(stats.mc.totalL2EvictionsByOthers()),
                "count");
        }
    }
}

void
probeTrace(const cac::Trace &trace, const RunOptions &opts, Outcome &out)
{
    if (!missingAny(out, {"trace.ns_per_rec", "trace.dropped_records"}))
        return;
    const std::string path = opts.dataDir + "/probe-" + opts.workload + "-"
        + std::to_string(opts.seed) + ".trc";
    cac::writeTrace(trace, path);
    std::uint64_t dropped = 0;
    const double ns = nsPerUnit([&] {
        ScopedSpan span("trace", "drain", path);
        cac::TraceReader reader(path);
        std::uint64_t n = 0;
        while (true) {
            const std::vector<cac::TraceRecord> &chunk = reader.next();
            if (chunk.empty())
                break;
            n += chunk.size();
        }
        dropped = reader.readStats().droppedRecords
            + (reader.ok() && n == trace.size() ? 0 : trace.size() - n);
        return n;
    });
    std::filesystem::remove(path);
    setIfMissing(out, "trace.ns_per_rec", ns, "ns");
    setIfMissing(out, "trace.dropped_records", static_cast<double>(dropped),
                 "count");
    out.check(dropped == 0, "trace probe dropped records");
}

void
probeSweep(const std::shared_ptr<const cac::Trace> &trace, Outcome &out)
{
    if (!missingAny(out, {"sweep.busy_ratio", "sweep.cell_ms_max"}))
        return;
    std::mutex mutex;
    std::vector<double> cell_ns;
    cac::SweepRunner runner(2);
    runner.addTraceWorkload("records", trace);
    for (const std::string &org : kOrgs) {
        runner.addTarget(org, [org] {
            return std::unique_ptr<cac::SimTarget>(
                buildTimedTarget(org, cac::TargetSpec{}, true));
        });
    }
    runner.setCellObserver(
        [&](const cac::SweepCell &, cac::SimTarget &target) {
            const double ns =
                static_cast<double>(static_cast<TracedTarget &>(target)
                                        .endCell());
            std::lock_guard<std::mutex> lock(mutex);
            cell_ns.push_back(ns);
        });
    const Clock::time_point t0 = Clock::now();
    const std::vector<cac::SweepCell> cells = runner.run();
    const double wall = static_cast<double>(nanosBetween(t0, Clock::now()));
    double busy = 0, cell_max = 0;
    for (double ns : cell_ns) {
        busy += ns;
        cell_max = std::max(cell_max, ns);
    }
    for (const cac::SweepCell &c : cells)
        out.check(!c.failed, "sweep probe cell " + c.org);
    setIfMissing(out, "sweep.busy_ratio", busy / (2.0 * wall), "ratio");
    setIfMissing(out, "sweep.cell_ms_max", cell_max / 1e6, "ms");
}

/** Median microseconds of @p reps calls of @p body. */
double
medianUs(int reps, const std::function<bool()> &body, Outcome &out,
         const char *what)
{
    std::vector<double> us;
    for (int i = 0; i < reps; ++i) {
        const Clock::time_point t0 = Clock::now();
        const bool ok = body();
        us.push_back(static_cast<double>(nanosBetween(t0, Clock::now()))
                     / 1e3);
        if (!ok) {
            out.check(false, what);
            break;
        }
    }
    return median(us);
}

std::string
recommendPayload(const std::string &label, std::uint64_t seed)
{
    return "workload=" + label + "\npolys=2\nrandom=1\nseed="
        + std::to_string(seed) + "\n";
}

void
probeServe(const std::string &label, Outcome &out)
{
    namespace sv = cac::serve;
    const std::string payload = recommendPayload(label, 1);

    if (!out.has("serve.frame_codec_us")) {
        // Header encode/decode plus payload render/parse: the framing a
        // request and its response each pay.
        std::map<std::string, std::string> kv;
        sv::kvParse(payload, kv);
        const std::vector<std::pair<std::string, std::string>> pairs(
            kv.begin(), kv.end());
        out.set("serve.frame_codec_us",
                1e-3 * nsPerUnit([&] {
                    ScopedSpan span("serve", "frameCodec");
                    for (int i = 0; i < 1000; ++i) {
                        unsigned char wire[sv::kHeaderBytes];
                        sv::FrameHeader h;
                        h.type = sv::MsgType::Recommend;
                        h.requestId = static_cast<std::uint32_t>(i);
                        h.payloadLen =
                            static_cast<std::uint32_t>(payload.size());
                        sv::encodeHeader(h, wire);
                        sv::FrameHeader back;
                        sv::decodeHeader(wire, back);
                        std::map<std::string, std::string> parsed;
                        sv::kvParse(sv::kvRender(pairs), parsed);
                    }
                    return std::uint64_t{1000};
                }),
                "us");
    }

    std::map<std::string, std::string> kv;
    sv::kvParse(payload, kv);
    sv::AdvisorRequest request;
    const cac::Error parsed =
        sv::parseAdvisorRequest(sv::MsgType::Recommend, kv, request);
    out.check(parsed.ok(), "advisor payload does not parse");
    if (!parsed.ok())
        return;
    const std::string key = sv::canonicalKey(request);

    if (!out.has("serve.parse_key_us")) {
        out.set("serve.parse_key_us",
                1e-3 * nsPerUnit([&] {
                    ScopedSpan span("serve", "parseAndKey");
                    for (int i = 0; i < 200; ++i) {
                        sv::AdvisorRequest r;
                        sv::parseAdvisorRequest(sv::MsgType::Recommend, kv,
                                                r);
                        if (sv::canonicalKey(r) != key)
                            return std::uint64_t{1};
                    }
                    return std::uint64_t{200};
                }),
                "us");
    }

    if (!out.has("analysis.compute_ms")) {
        std::string result;
        std::vector<double> ms;
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            sv::AdvisorRequest r = request;
            r.seed = seed;
            ScopedSpan span("analysis", "computeAdvice", label);
            const Clock::time_point t0 = Clock::now();
            result = sv::computeAdvice(r, 1);
            ms.push_back(static_cast<double>(nanosBetween(t0, Clock::now()))
                         / 1e6);
        }
        out.check(result.find("best=") != std::string::npos,
                  "computeAdvice result has no best= row");
        out.set("analysis.compute_ms", median(ms), "ms");
    }

    if (!out.has("serve.memo_get_us")) {
        cac::obs::Registry registry;
        sv::MemoCache memo(1u << 20, &registry);
        memo.put(key, std::string(2048, 'x'));
        std::string value;
        out.set("serve.memo_get_us",
                1e-3 * nsPerUnit([&] {
                    ScopedSpan span("serve", "memoGet");
                    for (int i = 0; i < 1000; ++i)
                        memo.get(key, value);
                    return std::uint64_t{1000};
                }),
                "us");
    }

    if (!missingAny(out, {"serve.ping_us", "obs.stats_us",
                          "serve.memo_hit_ratio", "serve.memo_evictions",
                          "serve.rejected"}))
        return;
    // A closed-loop round of the live service: one cold fill, memo
    // hits, pings, stats, and distinct-seed fills that overflow a
    // deliberately small memo.
    sv::ServeConfig config;
    config.memoBytes = 4096;
    sv::Server server(config);
    if (cac::Error err = server.start()) {
        out.check(false, "probe server did not start: " + err.message());
        return;
    }
    sv::Client client;
    std::uint64_t rejected = 0;
    if (cac::Error err = client.connectTo(server.port())) {
        out.check(false, "probe client did not connect");
        server.stop();
        return;
    }
    auto advise = [&](std::uint64_t seed, bool want_hit) {
        ScopedSpan span("serve", "recommend");
        const sv::Reply r = client.request(sv::MsgType::Recommend,
                                           recommendPayload(label, seed));
        if (!r.ok()) {
            ++rejected;
            return false;
        }
        return r.memoHit() == want_hit
            && r.payload.find("best=") != std::string::npos;
    };
    out.check(advise(1, false), "probe cold RECOMMEND");
    for (int i = 0; i < 50; ++i)
        out.check(advise(1, true), "probe memo-hit RECOMMEND");
    const double ping = medianUs(
        500,
        [&] {
            ScopedSpan span("serve", "ping");
            const sv::Reply r = client.ping();
            return r.transport.ok() && r.type == sv::MsgType::Pong;
        },
        out, "probe PING reply malformed");
    const double stats = medianUs(
        100,
        [&] {
            ScopedSpan span("obs", "stats");
            const sv::Reply r = client.stats();
            return r.ok() && r.payload.find("memo.hits=")
                != std::string::npos;
        },
        out, "probe STATS reply malformed");
    for (std::uint64_t seed = 2; seed <= 4; ++seed)
        out.check(advise(seed, false), "probe distinct-seed RECOMMEND");
    const sv::MemoCache::Stats memo = server.memoStats();
    client.disconnect();
    server.stop();
    setIfMissing(out, "serve.ping_us", ping, "us");
    setIfMissing(out, "obs.stats_us", stats, "us");
    setIfMissing(out, "serve.memo_hit_ratio",
                 static_cast<double>(memo.hits)
                     / static_cast<double>(
                         std::max<std::uint64_t>(1, memo.hits + memo.misses)),
                 "ratio");
    setIfMissing(out, "serve.memo_evictions",
                 static_cast<double>(memo.evictions), "count");
    setIfMissing(out, "serve.rejected", static_cast<double>(rejected),
                 "count");
}

} // anonymous namespace

void
runProbes(const ProbeInputs &in, const RunOptions &opts, Outcome &out)
{
    SpanLog::global().setEnabled(true);
    const Accesses accesses = accessesOf(*in.records);
    probeIndex(accesses, out);
    probeCache(accesses, out);
    probeGather(*in.records, out);
    probeHierarchy(*in.records, out);
    probeScenario(*in.scenario, out);
    probeTrace(*in.records, opts, out);
    probeSweep(in.records, out);
    // Last: starting a server switches the program's metric registry
    // on, which the replay probes above must not pay for.
    probeServe(in.adviceLabel, out);
    SpanLog::global().setEnabled(false);
}

const std::vector<std::string> &
endToEndNames()
{
    static const std::vector<std::string> names = {
        "setup_s", "peak_rss_mb", "replay_rps"};
    return names;
}

const std::vector<std::string> &
perLayerNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n = {
            "trace.ns_per_rec",      "trace.dropped_records",
            "core.gather_ns_per_rec", "core.run_len",
            "sweep.busy_ratio",      "sweep.cell_ms_max"};
        for (const std::string &org : kOrgs)
            n.push_back("cache.ns_per_access." + org);
        for (const char *s : {"mod", "Hx-Sk", "Hp", "Hp-Sk"})
            n.push_back(std::string("index.ns_per_access.") + s);
        n.push_back("hierarchy.ns_per_access.a2");
        n.push_back("hierarchy.ns_per_access.a2-Hp-Sk");
        n.push_back("scenario.dispatch_ns_per_rec");
        n.push_back("scenario.segments");
        n.push_back("scenario.switches");
        for (const char *c : {"c1", "c2", "c4"})
            n.push_back(std::string("multicore.ns_per_access.") + c);
        for (const char *what :
             {"interventions", "invalidations", "intercore_evictions"}) {
            for (const char *c : {"c2", "c4"})
                n.push_back(std::string("multicore.") + what + "." + c);
        }
        for (const std::string &org : kOrgs)
            n.push_back("sim.load_miss_ratio." + org);
        for (const char *t : {"2lvl-a2", "2lvl-a2-Hp-Sk", "mc1", "mc2", "mc4"})
            n.push_back(std::string("sim.load_miss_ratio.") + t);
        for (const char *s :
             {"serve.ping_us", "serve.frame_codec_us", "serve.parse_key_us",
              "serve.memo_get_us", "serve.memo_hit_ratio",
              "serve.memo_evictions", "serve.rejected",
              "analysis.compute_ms", "obs.stats_us",
              "bench.trace_overhead_ratio"})
            n.push_back(s);
        return n;
    }();
    return names;
}

} // namespace e2e
