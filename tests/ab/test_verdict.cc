/**
 * @file
 * The A/B verdict (tools/ab/verdict.hh): the rule cac_ab applies to
 * each row of per-pair ratios base / candidate, and to the candidate's
 * ratio claims. The spreads below are the ones self-comparisons of
 * one tree read on a shared 4-vCPU host.
 */

#include <vector>

#include <gtest/gtest.h>

#include "../../tools/ab/verdict.hh"

namespace
{

bool
rowFails(const std::vector<double> &ratios)
{
    return ab::rowFails(ab::spread(ratios));
}

TEST(AbVerdict, QuantilesInterpolate)
{
    const ab::Spread s = ab::spread({4.0, 1.0, 3.0, 2.0, 5.0});
    EXPECT_DOUBLE_EQ(s.median, 3.0);
    EXPECT_DOUBLE_EQ(s.q1, 2.0);
    EXPECT_DOUBLE_EQ(s.q3, 4.0);
    EXPECT_DOUBLE_EQ(ab::quantile({1.0, 2.0}, 0.5), 1.5);
    EXPECT_DOUBLE_EQ(ab::quantile({7.0}, 0.25), 7.0);
}

TEST(AbVerdict, TwiceAsSlowFails)
{
    EXPECT_TRUE(rowFails({0.49, 0.51, 0.50, 0.52, 0.48, 0.50, 0.50, 0.47,
                          0.53, 0.50}));
    // Even two noisy pairs at half speed are enough.
    EXPECT_TRUE(rowFails({0.45, 0.55}));
}

TEST(AbVerdict, SelfComparisonSpreadsPass)
{
    // swim 4M, 12 targets, 12 pairs: row medians 0.969-1.026.
    EXPECT_FALSE(rowFails({0.93, 0.95, 0.96, 0.97, 0.97, 0.969, 0.969,
                           0.98, 0.99, 1.00, 1.02, 1.04}));
    EXPECT_FALSE(rowFails({1.00, 1.01, 1.02, 1.026, 1.03, 1.05}));
    // mc_mix setup: median 1.023, IQR 0.986-1.066.
    EXPECT_FALSE(rowFails({0.90, 0.95, 0.986, 1.00, 1.02, 1.026, 1.05,
                           1.066, 1.10, 1.20}));
}

TEST(AbVerdict, SteadyFivePercentSlowdownPasses)
{
    std::vector<double> ratios(10, 1.0 / 1.05);
    EXPECT_FALSE(rowFails(ratios));
    ratios.assign(10, 1.0 / 1.12);
    EXPECT_TRUE(rowFails(ratios));
}

TEST(AbVerdict, OneOutlierPairDoesNotFailARow)
{
    EXPECT_FALSE(rowFails({1.0, 1.01, 0.99, 0.25, 1.0, 1.02, 0.98, 1.0,
                           1.01, 0.99}));
}

TEST(AbVerdict, SlowMedianWithParityInTheUpperQuartilePasses)
{
    // Slower in the median, but a quarter of the pairs at or above
    // parity: the spread cannot tell this from noise.
    EXPECT_FALSE(rowFails({0.70, 0.75, 0.80, 0.85, 0.88, 0.89, 1.0, 1.02,
                           1.05, 1.10}));
}

TEST(AbVerdict, ClaimsHoldTheirFloors)
{
    EXPECT_FALSE(ab::claimFails(ab::spread({0.94, 0.95, 0.96}),
                                ab::kVerifiedFloor));
    // CRC verification that costs 15%, or metrics that halve the rate.
    EXPECT_TRUE(ab::claimFails(ab::spread({0.83, 0.84, 0.85, 0.86, 0.87,
                                           0.88}),
                               ab::kVerifiedFloor));
    EXPECT_TRUE(ab::claimFails(ab::spread({0.5, 0.5, 0.52, 0.55}),
                               ab::kMetricsFloor));
}

TEST(AbVerdict, ClaimNoiseAroundTheFloorPasses)
{
    // Verified/unverified readings of an unchanged tree whose medians
    // fell below 0.90: IQR 0.808-1.063 and 0.881-0.933.
    EXPECT_FALSE(ab::claimFails(ab::spread({0.78, 0.80, 0.81, 0.84, 0.86,
                                            0.87, 0.95, 1.06, 1.07, 1.10}),
                                ab::kVerifiedFloor));
    EXPECT_FALSE(ab::claimFails(ab::spread({0.85, 0.87, 0.88, 0.89, 0.895,
                                            0.90, 0.92, 0.935, 0.95, 0.97}),
                                ab::kVerifiedFloor));
}

} // anonymous namespace
