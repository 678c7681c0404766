/**
 * @file
 * Randomized composition oracle for the scenario layer: seeded mix
 * labels (proxies, strideN and trace-file atoms; quanta of 1 and 13
 * records, large primes, multiples of 4096 and quanta longer than any
 * program; with and without phase shifts and cold flushes) are
 * composed by Scenario and checked against every program rebuilt on
 * its own through the public API. Each segment must point at exactly
 * its program's next records, where the program lies in composed(),
 * and the schedule must follow the round-robin merge rule. Each label
 * is then replayed through a functional cache whole, at a random chunk
 * size, and flat over the rebuilt schedule-order stream; all three
 * must agree. A failure prints the label, so it can be replayed with
 * `cac_sim --scenario`.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "core/registry.hh"
#include "core/sim_target.hh"
#include "scenario/scenario.hh"
#include "trace/builder.hh"
#include "trace/io.hh"
#include "workloads/spec_proxy.hh"
#include "workloads/stride.hh"

namespace cac
{
namespace
{

/** The PC window between programs (scenario.cc's kPcStridePerAsid). */
constexpr std::uint32_t kPcStride = std::uint32_t{1} << 20;

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

/** One program atom, rebuilt without Scenario. */
Trace
rebuildProgram(const std::string &atom, const ScenarioConfig &config)
{
    if (atom.rfind("trace:", 0) == 0)
        return readTrace(atom.substr(6));
    if (atom.rfind("stride", 0) == 0) {
        StrideWorkloadConfig wc;
        wc.stride = std::stoull(atom.substr(6));
        wc.sweeps = std::max<std::size_t>(
            1, config.programRecords / wc.numElements);
        Trace trace;
        TraceBuilder builder(trace);
        for (std::uint64_t addr : makeStrideAddressTrace(wc))
            builder.load(addr, reg::r(1), reg::r(30));
        return trace;
    }
    return buildSpecProxy(atom, config.programRecords, config.seed);
}

/**
 * The round-robin schedule, written out the obvious way: programs lie
 * back to back from @p start, and each segment points at its
 * program's next records.
 */
std::vector<Scenario::Segment>
referenceSchedule(const std::vector<std::size_t> &start,
                  const std::vector<std::size_t> &length,
                  std::size_t quantum)
{
    std::vector<Scenario::Segment> out;
    std::vector<std::size_t> pos(length.size(), 0);
    for (bool progressed = true; progressed;) {
        progressed = false;
        for (unsigned p = 0; p < length.size(); ++p) {
            if (pos[p] == length[p])
                continue;
            const std::size_t take = std::min(quantum, length[p] - pos[p]);
            if (!out.empty() && out.back().program == p)
                out.back().count += static_cast<std::uint32_t>(take);
            else
                out.push_back({.offset = start[p] + pos[p],
                               .count = static_cast<std::uint32_t>(take),
                               .program = p});
            pos[p] += take;
            progressed = true;
        }
    }
    return out;
}

void
expectStatsEq(const CacheStats &a, const CacheStats &b,
              const std::string &what)
{
    EXPECT_EQ(a.loads, b.loads) << what;
    EXPECT_EQ(a.stores, b.stores) << what;
    EXPECT_EQ(a.loadMisses, b.loadMisses) << what;
    EXPECT_EQ(a.storeMisses, b.storeMisses) << what;
    EXPECT_EQ(a.fills, b.fills) << what;
    EXPECT_EQ(a.evictions, b.evictions) << what;
}

/** Aggregate stats plus the per-program rows of one replay. */
struct Replayed
{
    CacheStats total;
    std::vector<ScenarioProgramStats> programs;
};

/** A fresh functional cache, the replay oracle's target. */
CacheTarget
oracleTarget()
{
    return CacheTarget(makeOrganization("a2-Hp-Sk", OrgSpec{}));
}

/** Replay @p scenario through replayInto() in @p chunk-record chunks. */
Replayed
replayScenario(const Scenario &scenario, std::size_t chunk)
{
    CacheTarget target = oracleTarget();
    Replayed out;
    out.programs = scenario.replayInto(target, chunk).programs;
    target.finish();
    out.total = target.stats().l1;
    return out;
}

/**
 * Replay @p stream — the rebuilt programs concatenated in schedule
 * order — flat, switching and attributing at @p schedule's boundaries
 * by hand, without Scenario.
 */
Replayed
replayFlat(const Trace &stream,
           const std::vector<Scenario::Segment> &schedule,
           std::size_t programs, SwitchPolicy policy)
{
    CacheTarget target = oracleTarget();
    Replayed out;
    out.programs.resize(programs);
    CacheStats prev = target.stats().l1;
    std::size_t at = 0;
    for (std::size_t s = 0; s < schedule.size(); ++s) {
        const Scenario::Segment &seg = schedule[s];
        if (s > 0 && policy == SwitchPolicy::ColdFlush)
            target.flushPrimary();
        target.replay(stream.data() + at, seg.count);
        target.checkpoint();
        const CacheStats now = target.stats().l1;
        ScenarioProgramStats &row = out.programs[seg.program];
        cacheStatsAccumulate(row.l1, cacheStatsDelta(now, prev));
        row.records += seg.count;
        prev = now;
        at += seg.count;
    }
    target.finish();
    out.total = target.stats().l1;
    return out;
}

void
expectReplayedEq(const Replayed &a, const Replayed &b,
                 const std::string &what)
{
    expectStatsEq(a.total, b.total, what + " total");
    ASSERT_EQ(a.programs.size(), b.programs.size()) << what;
    for (std::size_t p = 0; p < a.programs.size(); ++p) {
        const std::string row = what + " program " + std::to_string(p);
        EXPECT_EQ(a.programs[p].records, b.programs[p].records) << row;
        expectStatsEq(a.programs[p].l1, b.programs[p].l1, row);
    }
}

/** Draw one mix label over @p files (trace atoms to choose from). */
std::string
drawLabel(std::mt19937_64 &rng, const std::vector<std::string> &files)
{
    const std::vector<SpecProxyInfo> &proxies = specProxyList();
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    std::string label = "mix:";
    const std::size_t atoms = 1 + pick(5);
    for (std::size_t i = 0; i < atoms; ++i) {
        if (i > 0)
            label += "+";
        switch (pick(4)) {
        case 0:
            label += "stride" + std::to_string(1 + pick(1024));
            break;
        case 1:
            label += "trace:" + files[pick(files.size())];
            break;
        default:
            label += proxies[pick(proxies.size())].name;
            break;
        }
    }
    // q: a handful of records, a prime in the thousands, a multiple of
    // 4096, or longer than any program.
    static const std::uint64_t kPrimes[] = {8209, 12289, 50021};
    std::uint64_t q = 0;
    switch (pick(5)) {
    case 0: q = 1; break;
    case 1: q = 13; break;
    case 2: q = kPrimes[pick(3)]; break;
    case 3: q = 4096 * (1 + pick(6)); break;
    default: q = 10 * 1000 * 1000; break;
    }
    label += "@q=" + std::to_string(q);
    label += ",n=" + std::to_string(1 + pick(60000));
    label += ",seed=" + std::to_string(1 + pick(9));
    if (pick(2) == 0)
        label += ",phase=" + std::to_string(1 + pick(70000));
    if (pick(2) == 0)
        label += ",flush";
    return label;
}

/** Check @p label's composition and replay; @p rng draws the chunk. */
void
checkComposition(const std::string &label, std::mt19937_64 &rng)
{
    SCOPED_TRACE("label: " + label);
    std::string error;
    const std::optional<ScenarioSpec> spec =
        parseScenarioLabel(label, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    const ScenarioConfig &config = spec->config;

    std::vector<Trace> programs;
    std::vector<std::size_t> start;
    std::vector<std::size_t> length;
    std::size_t total = 0;
    for (std::size_t i = 0; i < spec->programs.size(); ++i) {
        Trace trace = rebuildProgram(spec->programs[i], config);
        ASSERT_FALSE(trace.empty());
        relocateTrace(trace, i * config.asidStrideBytes,
                      static_cast<std::uint32_t>(i) * kPcStride);
        rotateTrace(trace, (i * config.phaseRecords) % trace.size());
        start.push_back(total);
        length.push_back(trace.size());
        total += trace.size();
        programs.push_back(std::move(trace));
    }

    const Scenario scenario(*spec);
    const Trace &composed = scenario.composed();
    const std::vector<Scenario::Segment> &schedule = scenario.schedule();
    const std::vector<Scenario::Segment> expected =
        referenceSchedule(start, length, config.quantumRecords);

    ASSERT_EQ(schedule.size(), expected.size());
    ASSERT_EQ(composed.size(), total);
    std::vector<std::size_t> pos(programs.size(), 0);
    Trace stream; // the rebuilt programs, in schedule order
    stream.reserve(total);
    for (std::size_t s = 0; s < schedule.size(); ++s) {
        const Scenario::Segment &seg = schedule[s];
        ASSERT_EQ(seg.program, expected[s].program) << "segment " << s;
        ASSERT_EQ(seg.offset, start[seg.program] + pos[seg.program])
            << "segment " << s;
        ASSERT_EQ(seg.offset, expected[s].offset) << "segment " << s;
        ASSERT_EQ(seg.count, expected[s].count) << "segment " << s;
        // Merge rule: a switch separates every pair of segments, and
        // a segment longer than the quantum is a lone program's tail.
        if (s > 0) {
            ASSERT_NE(seg.program, schedule[s - 1].program);
        }
        if (seg.count > config.quantumRecords) {
            for (std::size_t p = 0; p < programs.size(); ++p) {
                if (p != seg.program) {
                    ASSERT_EQ(pos[p], length[p]) << "segment " << s;
                }
            }
        }
        const Trace &program = programs[seg.program];
        ASSERT_LE(pos[seg.program] + seg.count, program.size());
        ASSERT_EQ(0, std::memcmp(composed.data() + seg.offset,
                                 program.data() + pos[seg.program],
                                 seg.count * sizeof(TraceRecord)))
            << "segment " << s << " (program " << seg.program
            << ", records " << pos[seg.program] << "..)";
        const auto first = program.begin()
                           + static_cast<std::ptrdiff_t>(pos[seg.program]);
        stream.insert(stream.end(), first,
                      first + static_cast<std::ptrdiff_t>(seg.count));
        pos[seg.program] += seg.count;
    }
    EXPECT_EQ(pos, length);

    // Replay: whole segments, a random chunk size in [1, q], and the
    // flat schedule-order stream must all give the same statistics.
    const std::size_t quantum =
        static_cast<std::size_t>(std::min<std::uint64_t>(
            config.quantumRecords, total));
    const std::size_t chunk = 1 + static_cast<std::size_t>(rng() % quantum);
    const Replayed whole = replayScenario(scenario, 0);
    expectReplayedEq(whole, replayScenario(scenario, chunk),
                     "chunk " + std::to_string(chunk));
    expectReplayedEq(whole,
                     replayFlat(stream, schedule, programs.size(),
                                config.policy),
                     "flat");
}

TEST(ScenarioOracle, RandomMixesMatchIndependentlyBuiltPrograms)
{
    // Both container formats: a trace atom reads either.
    const std::vector<std::string> files = {
        tempPath("cac_oracle_gcc_v1.trc"), tempPath("cac_oracle_li_v2.trc")};
    writeTrace(buildSpecProxy("gcc", 20000, 3), files[0], TraceFormat::V1);
    writeTrace(buildSpecProxy("li", 9000, 4), files[1], TraceFormat::V2,
               1000);

    std::mt19937_64 rng(20261018);
    std::mt19937_64 chunk_rng(7);
    for (int i = 0; i < 40; ++i) {
        checkComposition(drawLabel(rng, files), chunk_rng);
        if (HasFatalFailure())
            break;
    }
    for (const std::string &file : files)
        std::filesystem::remove(file);
}

TEST(ScenarioOracle, EdgeQuanta)
{
    std::mt19937_64 rng(7);
    // A quantum equal to the stride program's length (n=400 gives six
    // 64-element sweeps: 384 records) and one record short of it, then
    // quanta with a small factor and a large prime one
    // (3 x 8209 and 2 x 8209).
    for (const char *label :
         {"mix:swim+stride7@q=384,n=400,phase=3",
          "mix:swim+stride7@q=383,n=400",
          "mix:tomcatv+gcc+wave5@q=24627,n=40k,phase=9k,flush",
          "mix:gcc+li@q=16418,n=50k"}) {
        checkComposition(label, rng);
    }
}

} // namespace
} // namespace cac
