/**
 * @file
 * Scenario replay equivalence: the same mix must produce identical
 * per-cell and per-program statistics at any thread count and for
 * streamed (chunked) vs in-memory (whole-segment) replay — the same
 * contract the engine already guarantees for plain trace workloads —
 * plus the attribution and switch-policy invariants.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/registry.hh"
#include "core/sim_target.hh"
#include "core/sweep.hh"
#include "scenario/scenario.hh"

namespace cac
{
namespace
{

constexpr const char *kMix = "mix:swim+tomcatv@q=5k,n=20k";

void
expectStatsEq(const CacheStats &a, const CacheStats &b)
{
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.loadMisses, b.loadMisses);
    EXPECT_EQ(a.storeMisses, b.storeMisses);
    EXPECT_EQ(a.fills, b.fills);
    EXPECT_EQ(a.evictions, b.evictions);
}

void
expectCellsEq(const std::vector<SweepCell> &a,
              const std::vector<SweepCell> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].workload, b[i].workload);
        EXPECT_EQ(a[i].org, b[i].org);
        expectStatsEq(a[i].stats, b[i].stats);
        ASSERT_EQ(a[i].programs.size(), b[i].programs.size());
        for (std::size_t p = 0; p < a[i].programs.size(); ++p) {
            EXPECT_EQ(a[i].programs[p].name, b[i].programs[p].name);
            EXPECT_EQ(a[i].programs[p].records,
                      b[i].programs[p].records);
            expectStatsEq(a[i].programs[p].l1, b[i].programs[p].l1);
        }
    }
}

std::vector<SweepCell>
runGrid(std::shared_ptr<const Scenario> scenario, unsigned threads,
        std::size_t chunk_records)
{
    SweepRunner sweep(threads);
    // Every target kind on the grid: functional caches, a hierarchy
    // and the CPU stack all replay the same composed stream.
    sweep.addOrgs({"a2", "a2-Hp-Sk", "victim", "2lvl:a2/a4",
                   "cpu:a2-Hp-Sk"});
    sweep.addScenarioWorkload(scenario->name(), scenario,
                              chunk_records);
    return sweep.run();
}

TEST(ScenarioDeterminism, ThreadCountInvariant)
{
    const auto scenario = buildScenario(kMix);
    const auto serial = runGrid(scenario, 1, 0);
    const auto parallel = runGrid(scenario, 4, 0);
    expectCellsEq(serial, parallel);
}

TEST(ScenarioDeterminism, StreamedMatchesInMemory)
{
    const auto scenario = buildScenario(kMix);
    const auto whole = runGrid(scenario, 2, 0);
    const auto chunked = runGrid(scenario, 2, 997); // awkward chunk
    expectCellsEq(whole, chunked);
}

TEST(ScenarioDeterminism, ChunkSizeInvariantReplay)
{
    const auto scenario = buildScenario(kMix);
    OrgSpec spec;
    CacheTarget whole(makeOrganization("a2-Hp-Sk", spec));
    const ScenarioResult a = scenario->replayInto(whole);
    CacheTarget chunked(makeOrganization("a2-Hp-Sk", spec));
    const ScenarioResult b = scenario->replayInto(chunked, 313);
    ASSERT_EQ(a.programs.size(), b.programs.size());
    for (std::size_t i = 0; i < a.programs.size(); ++i) {
        EXPECT_EQ(a.programs[i].records, b.programs[i].records);
        expectStatsEq(a.programs[i].l1, b.programs[i].l1);
    }
    EXPECT_EQ(a.switches, b.switches);
}

TEST(ScenarioDeterminism, BoundaryHookCountsEveryRecordOnce)
{
    // 5k-record quanta in 313-record chunks: the hook runs at every
    // chunk and segment boundary, and the counts it is handed add up
    // to the composed trace, none larger than a chunk.
    const auto scenario = buildScenario(kMix);
    OrgSpec spec;
    CacheTarget target(makeOrganization("a2", spec));
    std::size_t calls = 0;
    std::size_t records = 0;
    scenario->replayInto(target, 313, [&](std::size_t n) {
        EXPECT_GT(n, 0u);
        EXPECT_LE(n, 313u);
        ++calls;
        records += n;
    });
    EXPECT_EQ(records, scenario->composed().size());
    std::size_t boundaries = 0;
    for (const Scenario::Segment &segment : scenario->schedule())
        boundaries += (segment.count + 312) / 313;
    EXPECT_EQ(calls, boundaries);
}

TEST(ScenarioAttribution, ProgramsSumToAggregate)
{
    const auto scenario = buildScenario(kMix);
    OrgSpec spec;
    CacheTarget target(makeOrganization("a2", spec));
    const ScenarioResult result = scenario->replayInto(target);
    target.finish();

    const CacheStats total = target.stats().l1;
    CacheStats sum;
    std::uint64_t records = 0;
    for (const ScenarioProgramStats &p : result.programs) {
        sum.loads += p.l1.loads;
        sum.stores += p.l1.stores;
        sum.loadMisses += p.l1.loadMisses;
        sum.storeMisses += p.l1.storeMisses;
        records += p.records;
    }
    EXPECT_EQ(records, scenario->composed().size());
    EXPECT_EQ(sum.loads, total.loads);
    EXPECT_EQ(sum.stores, total.stores);
    EXPECT_EQ(sum.loadMisses, total.loadMisses);
    EXPECT_EQ(sum.storeMisses, total.storeMisses);
    EXPECT_EQ(result.switches, scenario->numSwitches());
    EXPECT_EQ(result.flushes, 0u); // warm-keep
}

TEST(ScenarioPolicy, ColdFlushCostsMisses)
{
    const auto keep = buildScenario(kMix);
    const auto flush = buildScenario(std::string(kMix) + ",flush");
    OrgSpec spec;
    CacheTarget keep_target(makeOrganization("a2-Hp-Sk", spec));
    keep->replayInto(keep_target);
    keep_target.finish();
    CacheTarget flush_target(makeOrganization("a2-Hp-Sk", spec));
    const ScenarioResult result = flush->replayInto(flush_target);
    flush_target.finish();

    EXPECT_EQ(result.flushes, flush->numSwitches());
    // Identical reference streams, so the access counts agree and the
    // flushed run can only add (cold) misses on a scheme that keeps
    // conflicts low; the skewed I-Poly qualifies.
    EXPECT_EQ(keep_target.stats().l1.accesses(),
              flush_target.stats().l1.accesses());
    EXPECT_GE(flush_target.stats().l1.misses(),
              keep_target.stats().l1.misses());
}

TEST(ScenarioPlacement, SkewedPolyBeatsConventionalOnConflictMix)
{
    // The paper's per-program story must survive multiprogramming:
    // swim+tomcatv thrash a conventional 2-way cache but not the
    // skewed I-Poly placement.
    const auto scenario = buildScenario(kMix);
    OrgSpec spec;
    CacheTarget conventional(makeOrganization("a2", spec));
    scenario->replayInto(conventional);
    conventional.finish();
    CacheTarget skewed(makeOrganization("a2-Hp-Sk", spec));
    scenario->replayInto(skewed);
    skewed.finish();
    EXPECT_LT(skewed.stats().l1.missRatio(),
              0.5 * conventional.stats().l1.missRatio());
}

} // namespace
} // namespace cac
