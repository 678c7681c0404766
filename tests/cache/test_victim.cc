/**
 * @file
 * Tests for the victim cache (Jouppi-style DM + victim buffer).
 */

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cache/victim.hh"
#include "common/rng.hh"

namespace cac
{
namespace
{

CacheGeometry
dmGeom()
{
    return CacheGeometry(8 * 1024, 32, 1);
}

TEST(VictimCache, CatchesPingPongConflicts)
{
    // Two blocks 8KB apart alternate in one DM set: without a victim
    // buffer every access misses; with one, steady state all-hits.
    VictimCache c(dmGeom(), 4);
    for (int i = 0; i < 50; ++i) {
        c.access(0x0000, false);
        c.access(0x2000, false);
    }
    EXPECT_EQ(c.stats().loadMisses, 2u); // compulsory only
    EXPECT_GT(c.victimHits(), 0u);
}

TEST(VictimCache, BufferCapacityLimitsCoverage)
{
    // Six conflicting blocks overwhelm a 2-line victim buffer.
    VictimCache small(dmGeom(), 2);
    for (int round = 0; round < 20; ++round)
        for (std::uint64_t k = 0; k < 6; ++k)
            small.access(k * 0x2000, false);
    EXPECT_GT(small.stats().loadMisses, 60u);

    // An 8-line buffer holds all of them.
    VictimCache big(dmGeom(), 8);
    for (int round = 0; round < 20; ++round)
        for (std::uint64_t k = 0; k < 6; ++k)
            big.access(k * 0x2000, false);
    EXPECT_EQ(big.stats().loadMisses, 6u);
}

TEST(VictimCache, ProbeSeesBothStructures)
{
    VictimCache c(dmGeom(), 4);
    c.access(0x0000, false);
    c.access(0x2000, false); // evicts 0x0000 to the buffer
    EXPECT_TRUE(c.probe(0x0000));
    EXPECT_TRUE(c.probe(0x2000));
    EXPECT_FALSE(c.probe(0x4000));
}

TEST(VictimCache, SwapRestoresMainResidency)
{
    VictimCache c(dmGeom(), 4);
    c.access(0x0000, false);
    c.access(0x2000, false); // 0x0000 -> buffer
    c.access(0x0000, false); // victim hit, swap back
    // Another conflicting fill must now displace 0x0000 again, proving
    // it lives in the main array (its set), not the buffer.
    c.access(0x4000, false);
    EXPECT_TRUE(c.probe(0x0000)); // in buffer again
}

TEST(VictimCache, InvalidateCoversBuffer)
{
    VictimCache c(dmGeom(), 4);
    c.access(0x0000, false);
    c.access(0x2000, false); // 0x0000 in buffer
    EXPECT_TRUE(c.invalidate(0x0000));
    EXPECT_FALSE(c.probe(0x0000));
    EXPECT_TRUE(c.invalidate(0x2000)); // in main
    EXPECT_FALSE(c.probe(0x2000));
}

TEST(VictimCache, FlushClearsBoth)
{
    VictimCache c(dmGeom(), 4);
    c.access(0x0000, false);
    c.access(0x2000, false);
    c.flush();
    EXPECT_FALSE(c.probe(0x0000));
    EXPECT_FALSE(c.probe(0x2000));
}

TEST(VictimCache, WriteNoAllocate)
{
    VictimCache c(dmGeom(), 4, /*write_allocate=*/false);
    c.access(0x1000, true);
    EXPECT_FALSE(c.probe(0x1000));
}

TEST(VictimCache, BatchMatchesScalarWithEitherWritePolicy)
{
    // A seeded mixed stream over a footprint a few times the cache,
    // so main-array hits, buffer swaps and buffer drops all occur;
    // accessMixed() runs the main array's batch kernel under
    // write-allocate and the scalar path under write-no-allocate.
    Rng rng(7);
    std::vector<std::uint64_t> addrs(20000);
    std::unique_ptr<bool[]> writes(new bool[addrs.size()]);
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        addrs[i] = rng.nextBelow(32 * 1024);
        writes[i] = rng.chance(0.3);
    }
    for (bool write_allocate : {true, false}) {
        VictimCache scalar(dmGeom(), 4, write_allocate);
        VictimCache batch(dmGeom(), 4, write_allocate);
        for (std::size_t i = 0; i < addrs.size(); ++i)
            scalar.access(addrs[i], writes[i]);
        for (std::size_t at = 0; at < addrs.size();) {
            const std::size_t n = std::min<std::size_t>(
                addrs.size() - at, 1 + rng.nextBelow(700));
            batch.accessMixed(addrs.data() + at, writes.get() + at, n);
            at += n;
        }
        const CacheStats &a = scalar.stats(), &b = batch.stats();
        EXPECT_EQ(a.loads, b.loads) << write_allocate;
        EXPECT_EQ(a.stores, b.stores) << write_allocate;
        EXPECT_EQ(a.loadMisses, b.loadMisses) << write_allocate;
        EXPECT_EQ(a.storeMisses, b.storeMisses) << write_allocate;
        EXPECT_EQ(a.fills, b.fills) << write_allocate;
        EXPECT_EQ(a.evictions, b.evictions) << write_allocate;
        EXPECT_EQ(scalar.victimHits(), batch.victimHits()) << write_allocate;
        EXPECT_GT(batch.victimHits(), 0u) << write_allocate;
        for (std::uint64_t addr = 0; addr < 32 * 1024; addr += 32)
            EXPECT_EQ(scalar.probe(addr), batch.probe(addr)) << addr;
    }
}

TEST(VictimCache, NameMentionsBufferSize)
{
    VictimCache c(dmGeom(), 8);
    EXPECT_NE(c.name().find("victim+8"), std::string::npos);
}

} // anonymous namespace
} // namespace cac
