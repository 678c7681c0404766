/**
 * @file
 * Tests for the named cache-organization factory.
 */

#include <gtest/gtest.h>

#include "core/registry.hh"

namespace cac
{
namespace
{

TEST(Organization, BuildsEveryStandardLabel)
{
    OrgSpec spec;
    for (const auto &label : standardComparisonLabels()) {
        auto cache = makeOrganization(label, spec);
        ASSERT_NE(cache, nullptr) << label;
        EXPECT_FALSE(cache->access(0x1234, false).hit) << label;
        EXPECT_TRUE(cache->access(0x1234, false).hit) << label;
    }
}

TEST(Organization, WaysParsedFromLabel)
{
    OrgSpec spec;
    auto a4 = makeOrganization("a4", spec);
    EXPECT_EQ(a4->geometry().ways(), 4u);
    auto dm = makeOrganization("dm", spec);
    EXPECT_EQ(dm->geometry().ways(), 1u);
}

TEST(Organization, CapacityRespected)
{
    OrgSpec spec;
    spec.sizeBytes = 16 * 1024;
    for (const auto &label : standardComparisonLabels()) {
        auto cache = makeOrganization(label, spec);
        EXPECT_EQ(cache->geometry().sizeBytes(), 16u * 1024) << label;
    }
}

TEST(Organization, SkewLabelsProduceSkewedPlacement)
{
    OrgSpec spec;
    auto skew = makeOrganization("a2-Hp-Sk", spec);
    // Three 4KB-congruent blocks coexist only under the hash schemes.
    for (int round = 0; round < 20; ++round)
        for (std::uint64_t a : {0x0000ull, 0x1000ull, 0x2000ull})
            skew->access(a, false);
    EXPECT_LE(skew->stats().loadMisses, 6u);
}

TEST(Organization, VictimUsesBufferSize)
{
    OrgSpec spec;
    spec.victimBlocks = 2;
    auto cache = makeOrganization("victim", spec);
    EXPECT_NE(cache->name().find("victim+2"), std::string::npos);
}

TEST(Organization, ColumnPolyIsTwoProbe)
{
    OrgSpec spec;
    auto cache = makeOrganization("column-poly", spec);
    for (int i = 0; i < 20; ++i) {
        cache->access(0x0000, false);
        cache->access(0x2000, false);
    }
    EXPECT_GT(cache->stats().firstProbeHits
                  + cache->stats().secondProbeHits,
              0u);
}

TEST(OrganizationDeath, UnknownLabelIsFatal)
{
    OrgSpec spec;
    EXPECT_EXIT((void)makeOrganization("wombat", spec),
                ::testing::ExitedWithCode(1), "unknown");
}

TEST(Organization, StandardSetCoversThePaperComparison)
{
    auto labels = standardComparisonLabels();
    for (const char *needed : {"dm", "a2", "a4", "a2-Hx-Sk", "a2-Hp",
                               "a2-Hp-Sk", "victim", "hash-rehash",
                               "column-poly", "full"}) {
        EXPECT_NE(std::find(labels.begin(), labels.end(), needed),
                  labels.end())
            << needed;
    }
}

} // anonymous namespace
} // namespace cac
