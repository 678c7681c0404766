/**
 * @file
 * One side of the A/B driver. Compiled twice (see side.hh), with
 * CAC_AB_SIDE naming the entry point: candidateSide or baseSide. It
 * uses only long-standing library calls — buildScenario(),
 * buildSpecProxy(), OrgRegistry::buildTarget(), replay(), stats() — so
 * that it compiles against an older tree too.
 */

#include "side.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "core/registry.hh"
#include "core/sim_target.hh"
#include "scenario/scenario.hh"
#include "workloads/spec_proxy.hh"

namespace
{

using Clock = std::chrono::steady_clock;

/** The built input: a scenario, or a proxy trace. */
std::shared_ptr<const cac::Scenario> g_scenario;
cac::Trace g_trace;

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
              s.evictions, s.writebacks, s.invalidations})
            add(v);
    }

    void add(const cac::HoleStats &s)
    {
        for (std::uint64_t v :
             {s.l1Misses, s.l2Misses, s.l2Replacements,
              s.inclusionInvalidates, s.holesCreated, s.holeRefills,
              s.externalInvalidates, s.aliasRemovals})
            add(v);
    }

    void add(const cac::TargetStats &s)
    {
        add(s.l1);
        if (s.hasHierarchy) {
            add(s.l2);
            add(s.holes);
        }
        if (!s.hasMultiCore)
            return;
        add(s.mc.interventions);
        add(s.mc.invalidationMessages);
        for (const cac::McCoreStats &c : s.mc.cores) {
            add(c.l1);
            add(c.holes);
            for (std::uint64_t v :
                 {c.interventionsReceived, c.interventionsSupplied,
                  c.invalidationsReceived, c.upgrades,
                  c.l2EvictionsByOthers, c.interCoreConflictMisses})
                add(v);
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
    return secondsSince(t0);
}

ab::Replay
replay(const std::string &label)
{
    const std::unique_ptr<cac::SimTarget> target =
        cac::OrgRegistry::global().buildTarget(label, cac::TargetSpec{});
    Digest digest;
    const Clock::time_point t0 = Clock::now();
    if (g_scenario) {
        const cac::ScenarioResult result = g_scenario->replayInto(*target);
        target->finish();
        for (const cac::ScenarioProgramStats &p : result.programs) {
            digest.add(p.records);
            digest.add(p.l1);
        }
    } else {
        target->replay(g_trace.data(), g_trace.size());
        target->finish();
    }
    ab::Replay out;
    out.seconds = secondsSince(t0);
    digest.add(target->stats());
    out.digest = digest.h;
    return out;
}

void
release()
{
    g_scenario.reset();
    cac::Trace().swap(g_trace);
}

} // anonymous namespace

const ab::Side &
ab::CAC_AB_SIDE()
{
    static const Side side{build, replay, release};
    return side;
}
