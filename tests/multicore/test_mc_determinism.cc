/**
 * @file
 * Determinism tests for multicore sweeps: the scheduler interleaving
 * is a fixed property of the composed scenario, never of the host, so
 * the full CSV artifacts — per-core rows included — must be
 * byte-identical across worker thread counts and across repeated
 * runs. This is the unit-level twin of the CI smoke lane's
 * `cac_sim --csv` diff gate and of the committed
 * tests/golden/mc_swim_tomcatv.csv golden.
 */

#include <string>

#include <gtest/gtest.h>

#include "core/registry.hh"
#include "core/sweep.hh"
#include "scenario/scenario.hh"

namespace cac
{
namespace
{

/** The golden lane's grid: standard targets (mc rows included) over
 *  the swim+tomcatv mix. */
std::string
runGridCsv(unsigned threads)
{
    SweepRunner runner(threads);
    runner.addOrgs(standardTargetLabels());
    runner.addScenarioWorkload("mix:swim+tomcatv@q=10k,n=60k");
    return scenarioCsv(runner.run());
}

TEST(McDeterminism, ScenarioCsvIsByteStableAcrossThreadCounts)
{
    const std::string serial = runGridCsv(1);
    // The mc targets contribute per-core rows and the four multicore
    // columns; both must appear no matter how the grid was scheduled.
    EXPECT_NE(serial.find("intercore_conflict_misses"),
              std::string::npos);
    EXPECT_NE(serial.find("core0"), std::string::npos);
    EXPECT_NE(serial.find("core1"), std::string::npos);
    for (unsigned threads : {2u, 4u, 8u})
        EXPECT_EQ(runGridCsv(threads), serial) << threads;
}

TEST(McDeterminism, RepeatedRunsAreByteIdentical)
{
    const std::string first = runGridCsv(4);
    EXPECT_EQ(runGridCsv(4), first);
}

TEST(McDeterminism, SweepCsvCarriesStableMulticoreColumns)
{
    const auto run = [] {
        SweepRunner runner(4);
        runner.addTarget("2lvl:a2/a4");
        runner.addTarget("mc:2xa2-Hp-Sk/a4");
        runner.addScenarioWorkload("mix:swim+tomcatv@q=10k,n=40k");
        return sweepCsv(runner.run());
    };
    const std::string csv = run();
    // Multicore columns present, and the non-mc row leaves them empty.
    EXPECT_NE(csv.find(",cores,intercore_evictions"), std::string::npos);
    EXPECT_EQ(run(), csv);
}

TEST(McDeterminism, DirectReplayIsRunToRunIdentical)
{
    const std::shared_ptr<const Scenario> scenario =
        buildScenario("mix:swim+tomcatv@q=10k,n=60k");
    const auto replay = [&] {
        auto target = OrgRegistry::global().buildTarget(
            "mc:2xa2-Hp-Sk/a4", TargetSpec{});
        scenario->replayInto(*target);
        target->finish();
        return target->stats();
    };
    const TargetStats a = replay();
    const TargetStats b = replay();
    ASSERT_TRUE(a.hasMultiCore);
    EXPECT_EQ(a.l1.loads, b.l1.loads);
    EXPECT_EQ(a.l1.misses(), b.l1.misses());
    EXPECT_EQ(a.l2.misses(), b.l2.misses());
    EXPECT_EQ(a.mc.totalInterCoreConflictMisses(),
              b.mc.totalInterCoreConflictMisses());
    EXPECT_EQ(a.mc.totalL2EvictionsByOthers(),
              b.mc.totalL2EvictionsByOthers());
    for (std::size_t c = 0; c < a.mc.cores.size(); ++c) {
        EXPECT_EQ(a.mc.cores[c].l1.misses(), b.mc.cores[c].l1.misses())
            << c;
        EXPECT_EQ(a.mc.cores[c].interCoreConflictMisses,
                  b.mc.cores[c].interCoreConflictMisses)
            << c;
    }
}

} // anonymous namespace
} // namespace cac
