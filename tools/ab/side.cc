/**
 * @file
 * One side of the A/B driver. Compiled twice (see side.hh), with
 * CAC_AB_SIDE naming the entry point: candidateSide or baseSide. It
 * uses only long-standing library calls — buildScenario(),
 * buildSpecProxy(), writeTrace(), TraceReader + tryReplayAll(),
 * OrgRegistry::buildTarget(), replay(), shardedReplayTrace(), the
 * metrics Registry and WindowSampler, stats() — so that it compiles
 * against an older tree too.
 */

#include "side.hh"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "core/registry.hh"
#include "core/shard_replay.hh"
#include "core/sim_target.hh"
#include "obs/metrics.hh"
#include "obs/window.hh"
#include "scenario/scenario.hh"
#include "trace/io.hh"
#include "workloads/spec_proxy.hh"

#define CAC_AB_STRING2(x) #x
#define CAC_AB_STRING(x) CAC_AB_STRING2(x)

namespace
{

using Clock = std::chrono::steady_clock;

/** Metrics mode: a window per 4096 accesses, poked every 8192 records. */
constexpr std::size_t kMetricsChunk = 8192;
constexpr std::uint64_t kMetricsWindow = 4096;

/** The built input: a scenario, or a proxy trace; and its file. */
std::shared_ptr<const cac::Scenario> g_scenario;
cac::Trace g_trace;
std::string g_path;

/** The input's records: a mix's programs back to back, or the trace. */
const cac::Trace &
records()
{
    return g_scenario ? g_scenario->composed() : g_trace;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** FNV-1a over 64-bit counters. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void add(const cac::CacheStats &s)
    {
        for (std::uint64_t v :
             {s.loads, s.stores, s.loadMisses, s.storeMisses, s.fills,
              s.evictions, s.writebacks, s.invalidations, s.firstProbeHits,
              s.secondProbeHits})
            add(v);
    }

    void add(const cac::HoleStats &s)
    {
        for (std::uint64_t v :
             {s.l1Misses, s.l2Misses, s.l2Replacements,
              s.inclusionInvalidates, s.holesCreated, s.holeRefills})
            add(v);
    }

    void add(const cac::CpuStats &s)
    {
        for (std::uint64_t v :
             {s.instructions, s.cycles, s.loads, s.stores, s.branches,
              s.branchMispredicts, s.loadMisses, s.addrPredConfidentCorrect,
              s.addrPredConfidentWrong})
            add(v);
    }

    void add(const cac::TargetStats &s)
    {
        add(static_cast<std::uint64_t>(s.kind));
        add(s.l1);
        if (s.hasHierarchy) {
            add(s.l2);
            add(s.holes);
        }
        if (s.hasCpu)
            add(s.cpu);
        if (!s.hasMultiCore)
            return;
        for (const cac::McCoreStats &c : s.mc.cores) {
            add(c.l1);
            add(c.holes);
            add(c.l2EvictionsByOthers);
            add(c.interCoreConflictMisses);
        }
    }

    void add(const cac::ScenarioResult &result)
    {
        for (const cac::ScenarioProgramStats &p : result.programs) {
            add(p.records);
            add(p.l1);
        }
    }
};

double
build(const std::string &input, std::uint64_t instructions,
      std::uint64_t seed)
{
    const Clock::time_point t0 = Clock::now();
    if (cac::isScenarioLabel(input)) {
        std::string error;
        if (!cac::parseScenarioLabel(input, &error)) {
            std::fprintf(stderr, "cac_ab: %s\n", error.c_str());
            std::exit(1);
        }
        g_scenario = cac::buildScenario(input);
    } else {
        if (!cac::knownSpecProxy(input)) {
            std::fprintf(stderr, "cac_ab: unknown input '%s'\n",
                         input.c_str());
            std::exit(1);
        }
        g_trace = cac::buildSpecProxy(input, instructions, seed);
    }
    const double seconds = secondsSince(t0);
    g_path = (std::filesystem::temp_directory_path()
              / ("cac_ab." + std::to_string(getpid()) + "."
                 + CAC_AB_STRING(CAC_AB_SIDE) + ".trc"))
                 .string();
    cac::writeTrace(records(), g_path);
    return seconds;
}

std::unique_ptr<cac::SimTarget>
makeTarget(const std::string &label)
{
    return cac::OrgRegistry::global().buildTarget(label, cac::TargetSpec{});
}

/** Replay the built input in memory, whole or (@p sample) chunked. */
void
replayInMemory(cac::SimTarget &target, Digest &digest,
               cac::obs::WindowSampler *sampler)
{
    if (g_scenario) {
        digest.add(sampler ? g_scenario->replayInto(
                                 target, kMetricsChunk,
                                 [sampler](std::size_t) { sampler->sample(); })
                           : g_scenario->replayInto(target));
        return;
    }
    if (!sampler) {
        target.replay(g_trace.data(), g_trace.size());
        return;
    }
    for (std::size_t at = 0; at < g_trace.size(); at += kMetricsChunk) {
        target.replay(g_trace.data() + at,
                      std::min(kMetricsChunk, g_trace.size() - at));
        sampler->sample();
    }
}

ab::Replay
replay(ab::Mode mode, const std::string &label)
{
    Digest digest;
    ab::Replay out;
    if (mode == ab::Mode::Shards4) {
        cac::ShardOptions opts;
        opts.shards = 4;
        opts.threads = 1;
        const Clock::time_point t0 = Clock::now();
        const cac::ShardedReplayResult result = cac::shardedReplayTrace(
            [&label] { return makeTarget(label); }, records(), opts);
        out.seconds = secondsSince(t0);
        digest.add(result.stats);
        out.digest = digest.h;
        return out;
    }

    const std::unique_ptr<cac::SimTarget> target = makeTarget(label);
    const Clock::time_point t0 = Clock::now();
    if (mode == ab::Mode::Stream || mode == ab::Mode::StreamNoVerify) {
        cac::TraceReaderOptions opts;
        opts.verifyChecksums = mode == ab::Mode::Stream;
        cac::TraceReader reader(g_path, opts);
        cac::Error error;
        if (!cac::tryReplayAll(reader, *target, &error)) {
            std::fprintf(stderr, "cac_ab: %s\n", error.message().c_str());
            std::exit(1);
        }
        target->finish();
    } else if (mode == ab::Mode::Metrics) {
        cac::obs::Registry::global().setEnabled(true);
        cac::obs::WindowSampler sampler(*target, kMetricsWindow);
        replayInMemory(*target, digest, &sampler);
        target->finish();
        sampler.finish();
    } else {
        replayInMemory(*target, digest, nullptr);
        target->finish();
    }
    out.seconds = secondsSince(t0);
    if (mode == ab::Mode::Metrics) {
        cac::obs::Registry::global().setEnabled(false);
        cac::obs::Registry::global().reset();
    }
    digest.add(target->stats());
    out.digest = digest.h;
    return out;
}

void
release()
{
    g_scenario.reset();
    cac::Trace().swap(g_trace);
    std::remove(g_path.c_str());
}

} // anonymous namespace

const ab::Side &
ab::CAC_AB_SIDE()
{
    static const Side side{build, replay, release};
    return side;
}
