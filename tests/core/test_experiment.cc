/**
 * @file
 * Tests for the shared experiment drivers.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/registry.hh"
#include "trace/builder.hh"
#include "workloads/stride.hh"

namespace cac
{
namespace
{

TEST(Experiment, RunAddressStreamCountsLoads)
{
    OrgSpec spec;
    auto cache = makeOrganization("a2", spec);
    std::vector<std::uint64_t> addrs = {0x1000, 0x1000, 0x2000};
    CacheStats s = runAddressStream(*cache, addrs);
    EXPECT_EQ(s.loads, 3u);
    EXPECT_EQ(s.loadMisses, 2u);
}

TEST(Experiment, RunTraceMemoryFiltersMemOps)
{
    OrgSpec spec;
    auto cache = makeOrganization("a2", spec);
    Trace t;
    TraceBuilder b(t);
    b.load(0x1000, reg::r(1));
    b.alu(OpClass::IntAlu, reg::r(2));
    b.store(0x2000, reg::r(1));
    b.branch(true);
    CacheStats s = runTraceMemory(*cache, t);
    EXPECT_EQ(s.loads, 1u);
    EXPECT_EQ(s.stores, 1u);
}

TEST(Experiment, RunCpuProducesSaneRow)
{
    Trace t;
    TraceBuilder b(t);
    for (int i = 0; i < 5000; ++i) {
        b.load(0x1000 + (i % 64) * 8, reg::r(1));
        b.alu(OpClass::IntAlu, reg::r(2), reg::r(1));
        b.branch(i % 100 != 99, reg::r(2));
    }
    BenchmarkResult row =
        runCpu("toy", CpuConfig::paperDefault(), t);
    EXPECT_EQ(row.name, "toy");
    EXPECT_GT(row.ipc, 0.1);
    EXPECT_LE(row.ipc, 4.0);
    EXPECT_GE(row.loadMissPct, 0.0);
    EXPECT_LE(row.loadMissPct, 100.0);
}

TEST(Experiment, AveragesUsePaperConventions)
{
    std::vector<BenchmarkResult> rows = {
        {"a", 1.0, 10.0},
        {"b", 4.0, 30.0},
    };
    TableAverages avg = averageResults(rows);
    EXPECT_DOUBLE_EQ(avg.ipcGeoMean, 2.0);      // geometric
    EXPECT_DOUBLE_EQ(avg.missArithMean, 20.0);  // arithmetic
}

TEST(Experiment, Figure1PipelineEndToEnd)
{
    // Mini Figure 1: one pathological stride, four schemes.
    StrideWorkloadConfig wc;
    wc.stride = 512; // 4KB in bytes: worst case for a2
    auto addrs = makeStrideAddressTrace(wc);
    OrgSpec spec;
    double a2_miss = 0, hp_miss = 0;
    {
        auto c = makeOrganization("a2", spec);
        a2_miss = runAddressStream(*c, addrs).missRatio();
    }
    {
        auto c = makeOrganization("a2-Hp-Sk", spec);
        hp_miss = runAddressStream(*c, addrs).missRatio();
    }
    EXPECT_GT(a2_miss, 0.5);
    EXPECT_LT(hp_miss, 0.1);
}

} // anonymous namespace
} // namespace cac
