/**
 * @file
 * Multi-core litmus tests: small hand-written 2-core scripts driven
 * through CoherentSystem::access(), which routes each address to the
 * core of its ASID window (core c's addresses start at c * 2 MiB).
 * No two cores ever hold the same physical block, so the scripts
 * exercise what cores do share: the L2, Inclusion across L1s and the
 * inter-core eviction attribution. Each script asserts exact counts
 * and re-checks the global invariants (routing, one reverse map per
 * block, Inclusion) after every step.
 *
 * Geometry notes: the page map is given a 64KB page so every script
 * address keeps its low 16 bits through translation (paddr =
 * frame_base + offset). L2 conflicts are then scriptable: with a
 * direct-mapped 4KB L2 (128 sets x 32B), addresses 0x1000 apart
 * collide in L2 regardless of where their pages landed physically,
 * in one core's window or in two.
 */

#include <gtest/gtest.h>

#include "cache/set_assoc.hh"
#include "index/factory.hh"
#include "multicore/coherent_system.hh"

namespace cac
{
namespace
{

/** Core 1's ASID window starts here (the default 2 MiB stride). */
constexpr std::uint64_t kCore1 = std::uint64_t{1} << 21;

std::unique_ptr<CacheModel>
makeCache(std::uint64_t size, unsigned ways)
{
    const CacheGeometry geom(size, 32, ways);
    return std::make_unique<SetAssocCache>(
        geom,
        makeIndexFn(IndexKind::Modulo, geom.setBits(), ways, 14));
}

/** @p cores identical 1KB/2-way L1s over one 64KB/2-way L2. */
CoherentSystem
makeSystem(unsigned cores)
{
    std::vector<std::unique_ptr<CacheModel>> l1s;
    for (unsigned c = 0; c < cores; ++c)
        l1s.push_back(makeCache(1024, 2));
    return CoherentSystem(std::move(l1s), makeCache(64 * 1024, 2),
                          PageMap(64 * 1024), kCore1);
}

/** All invariants that must hold after *every* step. */
void
expectInvariants(const CoherentSystem &sys, const char *where)
{
    EXPECT_TRUE(sys.checkCoherence()) << where;
    EXPECT_TRUE(sys.checkInclusion()) << where;
}

TEST(CoherenceLitmus, L1EvictionUnlinksSilently)
{
    auto sys = makeSystem(2);
    // 1KB / 32B / 2 ways = 16 sets, so addresses 512 bytes apart share
    // an L1 set; three of them overflow the two ways and evict A.
    const std::uint64_t A = 0x0;

    sys.access(A, true);
    sys.access(A + 512, false);
    sys.access(A + 1024, false); // LRU evicts A
    EXPECT_FALSE(sys.l1(0).probe(A));
    expectInvariants(sys, "after evicting A");

    // The next miss on A goes to the L2, which still holds it; the
    // eviction left no hole and invalidated nothing.
    const std::uint64_t l2_hits_before = sys.l2().stats().hits();
    EXPECT_FALSE(sys.access(A, false));
    EXPECT_EQ(sys.l2().stats().hits(), l2_hits_before + 1);
    EXPECT_TRUE(sys.l1(0).probe(A));
    const HoleStats holes = sys.aggregateHoles();
    EXPECT_EQ(holes.inclusionInvalidates, 0u);
    EXPECT_EQ(holes.holeRefills, 0u);
    expectInvariants(sys, "after A returns");
}

TEST(CoherenceLitmus, SharedL2EvictionAttributesInterCoreConflicts)
{
    // Direct-mapped 4KB L2: 0x1000-distant addresses collide in L2 but
    // coexist in the 4-way L1s (same L1 set, enough ways).
    std::vector<std::unique_ptr<CacheModel>> l1s;
    for (unsigned c = 0; c < 2; ++c)
        l1s.push_back(makeCache(1024, 4));
    CoherentSystem sys(std::move(l1s), makeCache(4096, 1),
                       PageMap(64 * 1024), kCore1);
    const std::uint64_t A = 0x0, C = 0x2000; // core 0
    const std::uint64_t B = kCore1 + 0x1000; // core 1

    sys.access(A, false); // core 0 fills A into the L2
    expectInvariants(sys, "after A");

    // Core 1's fill of B evicts A from the L2; Inclusion then rips A
    // out of core 0's L1, leaving a hole, and the eviction is charged
    // to the line's filler as "lost to a peer".
    sys.access(B, false);
    EXPECT_FALSE(sys.l1(0).probe(A));
    expectInvariants(sys, "after B evicts A");
    {
        const MultiCoreStats mc = sys.stats();
        EXPECT_EQ(mc.cores[0].l2EvictionsByOthers, 1u);
        EXPECT_EQ(mc.cores[0].holes.inclusionInvalidates, 1u);
        EXPECT_EQ(mc.cores[0].holes.holesCreated, 1u);
        EXPECT_EQ(mc.cores[0].interCoreConflictMisses, 0u); // not yet
        EXPECT_EQ(mc.cores[1].holes.inclusionInvalidates, 0u);
    }

    // Core 0 re-misses on the line core 1 pushed out: that is an
    // inter-core conflict miss (and a hole refill in the L1).
    sys.access(A, false);
    expectInvariants(sys, "after A returns");
    {
        const MultiCoreStats mc = sys.stats();
        EXPECT_EQ(mc.cores[0].interCoreConflictMisses, 1u);
        EXPECT_EQ(mc.cores[0].holes.holeRefills, 1u);
        // ...and A's fill evicted B right back: charged to core 1,
        // whose L1 now has the hole.
        EXPECT_EQ(mc.cores[1].l2EvictionsByOthers, 1u);
        EXPECT_EQ(mc.cores[1].holes.inclusionInvalidates, 1u);
        EXPECT_EQ(mc.cores[1].holes.holesCreated, 1u);
        EXPECT_FALSE(sys.l1(1).probe(B));
    }

    // The conflict was charged once: A's next miss (the L1s flushed,
    // the L2 still holding it) counts none.
    sys.flushL1s();
    EXPECT_FALSE(sys.access(A, false));
    EXPECT_EQ(sys.stats().cores[0].interCoreConflictMisses, 1u);
    expectInvariants(sys, "after A misses again");

    // A core re-evicting *its own* line is not an inter-core conflict:
    // core 0 brings C in (evicts its own A), then re-misses on A. The
    // eviction leaves a hole in core 0, charged to nobody else.
    sys.access(C, false);
    EXPECT_FALSE(sys.l1(0).probe(A));
    {
        const MultiCoreStats mc = sys.stats();
        EXPECT_EQ(mc.cores[0].l2EvictionsByOthers, 1u);
        EXPECT_EQ(mc.cores[0].holes.holesCreated, 2u);
        EXPECT_EQ(mc.cores[1].holes.holesCreated, 1u);
    }
    sys.access(A, false);
    EXPECT_EQ(sys.stats().cores[0].interCoreConflictMisses, 1u);
    expectInvariants(sys, "after self-conflict");
}

TEST(CoherenceLitmus, FlushL1sDropsEveryCopy)
{
    auto sys = makeSystem(2);
    const std::uint64_t A = 0x100, B = kCore1 + 0x200;
    sys.access(A, true);
    sys.access(B, false);
    sys.flushL1s();
    EXPECT_FALSE(sys.l1(0).probe(A));
    EXPECT_FALSE(sys.l1(1).probe(B));
    expectInvariants(sys, "after flush");

    // Post-flush misses go to the (still warm) L2.
    const std::uint64_t l2_hits_before = sys.l2().stats().hits();
    sys.access(A, false);
    EXPECT_EQ(sys.l2().stats().hits(), l2_hits_before + 1);
    expectInvariants(sys, "after A returns");
}

TEST(CoherenceLitmus, FlushL1sKeepsL2FillAttribution)
{
    // The SharedL2EvictionAttributesInterCoreConflicts geometry: A and
    // B collide in the direct-mapped L2 but not in the L1s.
    std::vector<std::unique_ptr<CacheModel>> l1s;
    for (unsigned c = 0; c < 2; ++c)
        l1s.push_back(makeCache(1024, 4));
    CoherentSystem sys(std::move(l1s), makeCache(4096, 1),
                       PageMap(64 * 1024), kCore1);
    const std::uint64_t A = 0x0, B = kCore1 + 0x1000;

    sys.access(A, false); // core 0 fills A into the L2
    expectInvariants(sys, "after A");
    sys.access(B, false); // core 1's fill evicts it
    expectInvariants(sys, "after B evicts A");
    EXPECT_EQ(sys.stats().cores[0].l2EvictionsByOthers, 1u);

    // The flush empties the L1s; the L2 and who filled and evicted its
    // lines survive it.
    sys.flushL1s();
    EXPECT_FALSE(sys.l1(0).probe(A));
    EXPECT_FALSE(sys.l1(1).probe(B));
    expectInvariants(sys, "after flush");

    sys.access(A, false);
    expectInvariants(sys, "after A returns");
    const MultiCoreStats mc = sys.stats();
    EXPECT_EQ(mc.cores[0].interCoreConflictMisses, 1u);
    EXPECT_EQ(mc.cores[0].l2EvictionsByOthers, 1u);
    // A's refill evicted B, which core 1 filled before the flush.
    EXPECT_EQ(mc.cores[1].l2EvictionsByOthers, 1u);
}

TEST(CoherenceLitmus, RejectsAWindowThatSplitsABlock)
{
    // A 48-byte window would route the two halves of the 32-byte
    // block at 32 to cores 0 and 1, putting it in both L1s.
    std::vector<std::unique_ptr<CacheModel>> l1s;
    for (unsigned c = 0; c < 2; ++c)
        l1s.push_back(makeCache(1024, 2));
    EXPECT_EXIT(CoherentSystem(std::move(l1s), makeCache(64 * 1024, 2),
                               PageMap(64 * 1024), 48),
                ::testing::ExitedWithCode(1), "whole number");
}

} // anonymous namespace
} // namespace cac
