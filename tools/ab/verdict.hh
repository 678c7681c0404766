/**
 * @file
 * The A/B verdict (tools/ab/main.cc): when a row of per-pair ratios
 * says the candidate got slower, and when a ratio claim about the
 * candidate alone holds. Header-only and dependency-free, so
 * tests/ab/test_verdict.cc checks the very rule cac_ab applies.
 *
 * A row's ratios are base time / candidate time, one per pair (above
 * 1: the candidate is faster). It fails when the median is below
 * kRowFloor — the candidate is more than 10% slower — and the upper
 * quartile is below kRowUpper, so at least three pairs in four were
 * slower. A steady change smaller than the tolerance passes, and so
 * does a row that noise spreads across parity. One outlier pair moves
 * neither quartile far.
 *
 * A claim's ratios compare two rows of the candidate within each pair:
 * the rate of the costlier path over the rate of the plain one. It
 * fails when the upper quartile is below the claim's floor, so at
 * least three pairs in four read below it. (A median below the floor
 * failed 2 of 15 claims in five gate runs on an unchanged tree: CRC
 * verification costs 5-8% there, and per-pair noise is a few percent.)
 */

#ifndef CAC_TOOLS_AB_VERDICT_HH
#define CAC_TOOLS_AB_VERDICT_HH

#include <algorithm>
#include <cstddef>
#include <vector>

namespace ab
{

inline constexpr double kRowFloor = 0.90;
inline constexpr double kRowUpper = 1.0;

/** CRC-verified streamed replay runs at least this fraction of unverified. */
inline constexpr double kVerifiedFloor = 0.90;
/** Replay with the metrics registry and windows on runs at least this
 *  fraction of the same replay with telemetry off. */
inline constexpr double kMetricsFloor = 0.90;

/** Quantile @p q of non-empty @p v, by linear interpolation. */
inline double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/** Median and quartiles of a non-empty set of ratios. */
struct Spread
{
    double median;
    double q1;
    double q3;
};

inline Spread
spread(const std::vector<double> &ratios)
{
    return {quantile(ratios, 0.5), quantile(ratios, 0.25),
            quantile(ratios, 0.75)};
}

inline bool
rowFails(const Spread &s)
{
    return s.median < kRowFloor && s.q3 < kRowUpper;
}

inline bool
claimFails(const Spread &s, double floor)
{
    return s.q3 < floor;
}

} // namespace ab

#endif // CAC_TOOLS_AB_VERDICT_HH
