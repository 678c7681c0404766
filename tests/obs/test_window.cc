/**
 * @file
 * Tests for the windowed time-series sampler (obs/window.hh): window
 * closing at boundary pokes, the at-least-N quantization rule,
 * contiguous stream positions, the final partial window from
 * finish(), conflict-miss attribution through a ConflictProfiler
 * wrapper, and the JSON/CSV renderings.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/conflict_profiler.hh"
#include "core/registry.hh"
#include "core/sim_target.hh"
#include "obs/window.hh"
#include "trace/builder.hh"

namespace cac
{
namespace
{

/** @p n loads walking one 64-byte-strided street of addresses. */
Trace
loadTrace(std::size_t n)
{
    Trace trace;
    TraceBuilder builder(trace);
    for (std::size_t i = 0; i < n; ++i)
        builder.load((i * 64) & 0xfffff, reg::r(1), reg::r(30));
    return trace;
}

/** Replay @p trace in @p chunk-record slices, poking @p sampler. */
void
replayChunked(SimTarget &target, obs::WindowSampler &sampler,
              const Trace &trace, std::size_t chunk)
{
    for (std::size_t at = 0; at < trace.size(); at += chunk) {
        const std::size_t n = std::min(chunk, trace.size() - at);
        target.replay(trace.data() + at, n);
        sampler.sample();
    }
    target.finish();
    sampler.finish();
}

TEST(WindowSampler, ClosesWindowsAtBoundaries)
{
    const Trace trace = loadTrace(10000);
    CacheTarget target(makeOrganization("a2", OrgSpec{}));
    obs::WindowSampler sampler(target, 3000);
    replayChunked(target, sampler, trace, 1000);

    // Chunks of 1000 against a 3000-access window: closes at 3000,
    // 6000, 9000, and finish() flushes the final 1000 as a partial.
    const std::vector<obs::ObsWindow> &windows = sampler.windows();
    ASSERT_EQ(windows.size(), 4u);
    EXPECT_EQ(windows[0].endAccess, 3000u);
    EXPECT_EQ(windows[1].endAccess, 6000u);
    EXPECT_EQ(windows[2].endAccess, 9000u);
    EXPECT_EQ(windows[3].endAccess, 10000u);

    std::uint64_t prev_end = 0;
    std::uint64_t total_loads = 0;
    for (std::size_t i = 0; i < windows.size(); ++i) {
        const obs::ObsWindow &w = windows[i];
        EXPECT_EQ(w.index, i);
        EXPECT_EQ(w.startAccess, prev_end);
        prev_end = w.endAccess;
        EXPECT_EQ(w.accesses(), w.endAccess - w.startAccess);
        EXPECT_EQ(w.stores, 0u);
        EXPECT_FALSE(w.hasConflict);
        total_loads += w.loads;
    }
    EXPECT_EQ(total_loads, 10000u);
}

TEST(WindowSampler, QuantizesToTheCrossingBoundary)
{
    // 2500-access window sampled every 1000 accesses: the window that
    // crosses keeps the overshoot, so edges land on poke boundaries.
    const Trace trace = loadTrace(6000);
    CacheTarget target(makeOrganization("a2", OrgSpec{}));
    obs::WindowSampler sampler(target, 2500);
    replayChunked(target, sampler, trace, 1000);

    const std::vector<obs::ObsWindow> &windows = sampler.windows();
    ASSERT_EQ(windows.size(), 2u);
    EXPECT_EQ(windows[0].endAccess, 3000u);
    EXPECT_EQ(windows[1].endAccess, 6000u);
    for (const obs::ObsWindow &w : windows)
        EXPECT_GE(w.accesses(), 2500u);
}

TEST(WindowSampler, FinishIsIdempotent)
{
    const Trace trace = loadTrace(1500);
    CacheTarget target(makeOrganization("a2", OrgSpec{}));
    obs::WindowSampler sampler(target, 1000);
    replayChunked(target, sampler, trace, 500);
    const std::size_t count = sampler.windows().size();
    sampler.finish();
    sampler.finish();
    EXPECT_EQ(sampler.windows().size(), count);
}

TEST(WindowSampler, MissRatioIsConsistentWithTargetStats)
{
    const Trace trace = loadTrace(8000);
    CacheTarget target(makeOrganization("a2", OrgSpec{}));
    obs::WindowSampler sampler(target, 2000);
    replayChunked(target, sampler, trace, 2000);

    std::uint64_t misses = 0;
    for (const obs::ObsWindow &w : sampler.windows()) {
        EXPECT_GE(w.missRatio(), 0.0);
        EXPECT_LE(w.missRatio(), 1.0);
        misses += w.misses();
    }
    EXPECT_EQ(misses, target.stats().l1.misses());
}

TEST(WindowSampler, ProfiledTargetsCarryConflictMisses)
{
    const Trace trace = loadTrace(4000);
    auto model = makeOrganization("dm", OrgSpec{});
    const CacheGeometry geometry = model->geometry();
    ConflictProfiler target(
        std::make_unique<CacheTarget>(std::move(model)), geometry);
    obs::WindowSampler sampler(target, 1000);
    replayChunked(target, sampler, trace, 1000);

    ASSERT_FALSE(sampler.windows().empty());
    for (const obs::ObsWindow &w : sampler.windows())
        EXPECT_TRUE(w.hasConflict);
}

TEST(WindowSampler, ShrinkingConflictAttributionClampsAtZero)
{
    // Conflict attribution (target misses beyond the fully-assoc
    // shadow's) is not monotonic: an LRU-hostile phase makes the
    // shadow miss faster than the target, shrinking the cumulative
    // count. The sampler must clamp the per-window delta, never wrap.
    Trace trace;
    TraceBuilder builder(trace);
    // Phase 1: two addresses aliasing one direct-mapped set — pure
    // conflict misses, the 256-line shadow holds both.
    for (std::size_t i = 0; i < 2000; ++i)
        builder.load(i % 2 ? 0x0 : 0x2000, reg::r(1), reg::r(30));
    // Phase 2: cyclic sweep one block wider than the shadow's
    // capacity — LRU misses every access while the direct-mapped
    // target hits almost everywhere, so cumulative attribution falls.
    for (std::size_t i = 0; i < 6000; ++i)
        builder.load((i % 257) * 32, reg::r(1), reg::r(30));

    auto model = makeOrganization("dm", OrgSpec{});
    const CacheGeometry geometry = model->geometry();
    ConflictProfiler target(
        std::make_unique<CacheTarget>(std::move(model)), geometry);
    obs::WindowSampler sampler(target, 2000);
    replayChunked(target, sampler, trace, 2000);

    // The pathology really happened: the end-of-run cumulative count
    // is below the phase-1 window's.
    const std::vector<obs::ObsWindow> &windows = sampler.windows();
    ASSERT_GE(windows.size(), 2u);
    EXPECT_GT(windows[0].conflictMisses, 0u);
    EXPECT_LT(target.profile().conflictMisses(),
              windows[0].conflictMisses);
    // And no window wrapped: a window can never attribute more
    // conflict misses than it has accesses.
    for (const obs::ObsWindow &w : windows)
        EXPECT_LE(w.conflictMisses, w.accesses());
}

TEST(WindowSampler, JsonAndCsvRenderings)
{
    const Trace trace = loadTrace(3000);
    CacheTarget target(makeOrganization("a2", OrgSpec{}));
    obs::WindowSampler sampler(target, 1000);
    replayChunked(target, sampler, trace, 1000);

    const std::string json = obs::windowsJson(sampler.windows());
    EXPECT_NE(json.find("\"index\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"miss_ratio\""), std::string::npos);
    EXPECT_EQ(json.find("\"conflict_misses\""), std::string::npos);

    const std::string csv = obs::windowsCsv(sampler.windows());
    EXPECT_EQ(csv.find("conflict"), std::string::npos);
    EXPECT_NE(csv.find("window,start,end,loads,stores"),
              std::string::npos);
    // Header + one row per window.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'),
              1 + static_cast<long>(sampler.windows().size()));
}

} // anonymous namespace
} // namespace cac
