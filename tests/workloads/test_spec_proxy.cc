/**
 * @file
 * Tests for the Spec95 workload proxies, including the calibration
 * properties the Table 2/3 reproduction depends on.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "cache/set_assoc.hh"
#include "core/experiment.hh"
#include "core/registry.hh"
#include "workloads/spec_proxy.hh"

namespace cac
{
namespace
{

double
loadMissPct(const std::string &label, const Trace &t)
{
    OrgSpec spec;
    spec.writeAllocate = false;
    auto cache = makeOrganization(label, spec);
    return runTraceMemory(*cache, t).loadMissRatio() * 100.0;
}

TEST(SpecProxy, ListHasEighteenPrograms)
{
    EXPECT_EQ(specProxyList().size(), 18u);
}

TEST(SpecProxy, ExactlyThreeHighConflictPrograms)
{
    unsigned bad = 0;
    for (const auto &info : specProxyList())
        bad += info.highConflict;
    EXPECT_EQ(bad, 3u);
    EXPECT_TRUE(specProxyInfo("tomcatv").highConflict);
    EXPECT_TRUE(specProxyInfo("swim").highConflict);
    EXPECT_TRUE(specProxyInfo("wave5").highConflict);
}

TEST(SpecProxy, TenFpEightInt)
{
    unsigned fp = 0;
    for (const auto &info : specProxyList())
        fp += info.isFp;
    EXPECT_EQ(fp, 10u);
}

TEST(SpecProxy, BuildsApproximatelyTargetLength)
{
    for (const char *name : {"go", "swim", "fpppp"}) {
        Trace t = buildSpecProxy(name, 50000);
        EXPECT_GE(t.size(), 50000u);
        EXPECT_LT(t.size(), 75000u) << name;
    }
}

TEST(SpecProxy, DeterministicPerSeed)
{
    Trace a = buildSpecProxy("gcc", 20000, 3);
    Trace b = buildSpecProxy("gcc", 20000, 3);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].addr, b[i].addr);
        EXPECT_EQ(a[i].op, b[i].op);
    }
}

TEST(SpecProxy, AppendKeepsPrefixAndMatchesBuild)
{
    for (const char *name : {"swim", "gcc", "li"}) {
        SCOPED_TRACE(name);
        Trace prefix;
        for (std::uint32_t i = 0; i < 777; ++i) {
            TraceRecord rec;
            rec.op = OpClass::Store;
            rec.addr = 0xABC000 + 8 * i;
            rec.pc = i;
            prefix.push_back(rec);
        }
        Trace trace = prefix;
        appendSpecProxy(trace, name, 12000, 5);
        const Trace built = buildSpecProxy(name, 12000, 5);
        ASSERT_EQ(trace.size(), prefix.size() + built.size());
        EXPECT_EQ(0, std::memcmp(trace.data(), prefix.data(),
                                 prefix.size() * sizeof(TraceRecord)));
        EXPECT_EQ(0, std::memcmp(trace.data() + prefix.size(),
                                 built.data(),
                                 built.size() * sizeof(TraceRecord)));
    }
}

TEST(SpecProxy, SeedChangesRandomizedProxies)
{
    Trace a = buildSpecProxy("compress", 20000, 1);
    Trace b = buildSpecProxy("compress", 20000, 2);
    bool differs = a.size() != b.size();
    for (std::size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].addr != b[i].addr;
    EXPECT_TRUE(differs);
}

TEST(SpecProxyDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT((void)buildSpecProxy("doom", 1000),
                ::testing::ExitedWithCode(1), "unknown");
}

TEST(SpecProxy, InstructionMixIsPlausible)
{
    for (const auto &info : specProxyList()) {
        Trace t = buildSpecProxy(info.name, 40000);
        std::size_t loads = 0, stores = 0, branches = 0, fp = 0;
        for (const auto &rec : t) {
            loads += rec.op == OpClass::Load;
            stores += rec.op == OpClass::Store;
            branches += rec.op == OpClass::Branch;
            fp += isFpOp(rec.op);
        }
        const double n = static_cast<double>(t.size());
        EXPECT_GT(loads / n, 0.10) << info.name;
        EXPECT_LT(loads / n, 0.60) << info.name;
        EXPECT_GT(branches / n, 0.02) << info.name;
        EXPECT_LT(branches / n, 0.40) << info.name;
        if (info.isFp)
            EXPECT_GT(fp / n, 0.15) << info.name;
        else
            EXPECT_LT(fp / n, 0.05) << info.name;
        EXPECT_LT(stores / n, 0.30) << info.name;
    }
}

/**
 * The calibration property behind Tables 2-3: the three bad programs
 * must thrash a conventional 8KB 2-way cache and be largely fixed by
 * skewed I-Poly placement; the other fifteen must be placement
 * insensitive.
 */
class SpecProxyCalibration
    : public ::testing::TestWithParam<SpecProxyInfo>
{
};

TEST_P(SpecProxyCalibration, ConflictBehaviourMatchesPaperCategory)
{
    const SpecProxyInfo &info = GetParam();
    Trace t = buildSpecProxy(info.name, 120000);
    const double conv = loadMissPct("a2", t);
    const double poly = loadMissPct("a2-Hp-Sk", t);

    if (info.highConflict) {
        EXPECT_GT(conv, 35.0) << info.name;
        EXPECT_LT(poly, conv / 2.0) << info.name;
        EXPECT_LT(poly, 25.0) << info.name;
    } else {
        // Placement-insensitive: the schemes agree within a few points.
        EXPECT_LT(conv, 25.0) << info.name;
        EXPECT_LT(std::abs(conv - poly), 5.0) << info.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllProxies, SpecProxyCalibration,
    ::testing::ValuesIn(specProxyList()),
    [](const ::testing::TestParamInfo<SpecProxyInfo> &info) {
        return info.param.name;
    });

TEST(SpecProxy, BadProgramsApproachFullyAssociativeUnderIPoly)
{
    // Section 2.1's headline: I-Poly indexing comes close to a
    // fully-associative cache of the same capacity.
    for (const char *name : {"tomcatv", "swim"}) {
        Trace t = buildSpecProxy(name, 120000);
        const double poly = loadMissPct("a2-Hp-Sk", t);
        const double full = loadMissPct("full", t);
        EXPECT_LT(poly, full + 8.0) << name;
    }
}

} // anonymous namespace
} // namespace cac
