/**
 * @file
 * Tests for the fully-associative LRU cache.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "cache/fully_assoc.hh"

namespace cac
{
namespace
{

TEST(FullyAssocCache, NoConflictMissesByConstruction)
{
    // Any working set up to capacity hits in steady state, regardless
    // of address alignment — even the 4KB-congruent pattern that
    // destroys a conventional cache.
    FullyAssocCache c(8 * 1024, 32);
    for (int round = 0; round < 10; ++round)
        for (std::uint64_t a = 0; a < 256 * 4096; a += 4096)
            c.access(a, false);
    EXPECT_EQ(c.stats().loadMisses, 256u); // compulsory only
}

TEST(FullyAssocCache, LruEvictionOrder)
{
    FullyAssocCache c(4 * 32, 32); // 4 blocks
    c.access(0 * 32, false);
    c.access(1 * 32, false);
    c.access(2 * 32, false);
    c.access(3 * 32, false);
    c.access(0 * 32, false);       // refresh block 0
    auto r = c.access(4 * 32, false); // evicts block 1 (LRU)
    ASSERT_TRUE(r.evictedAddr.has_value());
    EXPECT_EQ(*r.evictedAddr, 32u);
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(32));
}

TEST(FullyAssocCache, CapacityIsExact)
{
    FullyAssocCache c(8 * 1024, 32);
    for (std::uint64_t a = 0; a < 512 * 32; a += 32)
        c.access(a, false);
    unsigned resident = 0;
    for (std::uint64_t a = 0; a < 512 * 32; a += 32)
        resident += c.probe(a);
    EXPECT_EQ(resident, 256u);
}

TEST(FullyAssocCache, WriteNoAllocate)
{
    FullyAssocCache c(1024, 32, /*write_allocate=*/false);
    c.access(0x100, true);
    EXPECT_FALSE(c.probe(0x100));
    EXPECT_EQ(c.stats().storeMisses, 1u);
}

TEST(FullyAssocCache, InvalidateAndFlush)
{
    FullyAssocCache c(1024, 32);
    c.access(0x100, false);
    c.access(0x200, false);
    EXPECT_TRUE(c.invalidate(0x100));
    EXPECT_FALSE(c.invalidate(0x100));
    EXPECT_TRUE(c.probe(0x200));
    c.flush();
    EXPECT_FALSE(c.probe(0x200));
}

TEST(FullyAssocCache, InvalidatedSlotsAreReusedInLruOrder)
{
    // Four lines; two invalidated slots are refilled before anything
    // is evicted, and the LRU order of the survivors is kept.
    FullyAssocCache c(128, 32);
    for (std::uint64_t a : {0x000, 0x100, 0x200, 0x300})
        c.access(a, false);
    EXPECT_TRUE(c.invalidate(0x100));
    EXPECT_TRUE(c.invalidate(0x000));
    c.access(0x400, false);
    c.access(0x500, false);
    EXPECT_EQ(c.stats().evictions, 0u);
    std::vector<std::uint64_t> resident;
    c.forEachBlock([&](std::uint64_t a) { resident.push_back(a); });
    std::sort(resident.begin(), resident.end());
    EXPECT_EQ(resident,
              (std::vector<std::uint64_t>{0x200, 0x300, 0x400, 0x500}));
    // Full again: the next fill evicts the least recent, 0x200.
    const AccessResult r = c.access(0x600, false);
    ASSERT_TRUE(r.evictedAddr.has_value());
    EXPECT_EQ(*r.evictedAddr, 0x200u);
    c.access(0x300, false); // touch: 0x400 is now least recent
    EXPECT_EQ(*c.access(0x700, false).evictedAddr, 0x400u);
}

TEST(FullyAssocCache, MatchesPaperReferenceRole)
{
    // Section 2.1: the fully-associative cache is the conflict-free
    // reference. For a strided stream that fits, it must see only the
    // compulsory misses.
    FullyAssocCache c(8 * 1024, 32);
    const std::uint64_t stride = 1 << 12;
    for (int round = 0; round < 8; ++round)
        for (std::uint64_t i = 0; i < 64; ++i)
            c.access((1 << 20) + i * stride, false);
    EXPECT_EQ(c.stats().loadMisses, 64u);
}

TEST(FullyAssocCache, Name)
{
    FullyAssocCache c(8 * 1024, 32);
    EXPECT_EQ(c.name(), "8KB 256-way 32B fully-assoc");
}

} // anonymous namespace
} // namespace cac
