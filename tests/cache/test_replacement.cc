/**
 * @file
 * Tests for the replacement policies, driven through SetAssocCache:
 * which line each ReplKind evicts, seen from the blocks a miss evicts.
 */

#include <gtest/gtest.h>

#include <map>

#include "cache/set_assoc.hh"
#include "index/factory.hh"

namespace cac
{
namespace
{

/** Replacement-policy sweep: the cache works with every policy. */
class SetAssocRepl : public ::testing::TestWithParam<ReplKind>
{
};

TEST_P(SetAssocRepl, HitsAndCapacityHoldForEveryPolicy)
{
    const CacheGeometry geom = CacheGeometry::paperL1_8k();
    auto cache = std::make_unique<SetAssocCache>(
        geom, makeIndexFn(IndexKind::Modulo, geom.setBits(),
                          geom.ways(), 14),
        GetParam());
    // A working set half the cache must fully hit in steady state.
    for (int round = 0; round < 4; ++round)
        for (std::uint64_t a = 0; a < 4096; a += 32)
            cache->access(a, false);
    const CacheStats &s = cache->stats();
    EXPECT_EQ(s.loadMisses, 128u); // compulsory only
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SetAssocRepl,
                         ::testing::Values(ReplKind::Lru, ReplKind::Fifo,
                                           ReplKind::Random, ReplKind::Nru));

/**
 * A 4-way cache of two sets under @p repl. The byte addresses
 * setZero(0..) all fall in set 0, so they compete for its four ways,
 * which fill in way order.
 */
std::unique_ptr<SetAssocCache>
fourWayCache(ReplKind repl)
{
    const CacheGeometry geom(256, 32, 4);
    return std::make_unique<SetAssocCache>(
        geom, makeIndexFn(IndexKind::Modulo, geom.setBits(), geom.ways()),
        repl);
}

std::uint64_t
setZero(unsigned k)
{
    return std::uint64_t{k} * 64;
}

/** Access setZero(k) for every k in @p ks, expecting each to miss. */
void
fillSetZero(SetAssocCache &c, std::initializer_list<unsigned> ks)
{
    for (unsigned k : ks)
        ASSERT_FALSE(c.access(setZero(k), false).hit) << k;
}

/** The block a miss on setZero(@p k) evicts, or ~0 when none. */
std::uint64_t
evictedBy(SetAssocCache &c, unsigned k)
{
    const AccessResult r = c.access(setZero(k), false);
    EXPECT_FALSE(r.hit) << k;
    return r.evictedAddr.value_or(~std::uint64_t{0});
}

TEST(SetAssocReplacement, InvalidWayTakenFirstByEveryPolicy)
{
    for (ReplKind repl : {ReplKind::Lru, ReplKind::Fifo, ReplKind::Random,
                          ReplKind::Nru}) {
        auto c = fourWayCache(repl);
        fillSetZero(*c, {0, 1, 2, 3});
        // Free one way at a time, right after touching its line so its
        // stamp ranks it last; the next miss must still take it,
        // evicting nothing (under Random too, every time).
        unsigned resident[4] = {0, 1, 2, 3}; // block index per way
        for (unsigned k = 4; k < 24; ++k) {
            unsigned &way = resident[k % 4];
            c->access(setZero(way), false);
            ASSERT_TRUE(c->invalidate(setZero(way)));
            EXPECT_EQ(evictedBy(*c, k), ~std::uint64_t{0})
                << static_cast<int>(repl) << " k " << k;
            way = k;
        }
        EXPECT_EQ(c->stats().evictions, 0u) << static_cast<int>(repl);
    }
}

TEST(SetAssocReplacement, LruEvictsOldestTouch)
{
    auto c = fourWayCache(ReplKind::Lru);
    fillSetZero(*c, {0, 1, 2, 3});
    c->access(setZero(0), false); // 0 is now the newest touch
    EXPECT_EQ(evictedBy(*c, 4), setZero(1));
    c->access(setZero(2), false);
    EXPECT_EQ(evictedBy(*c, 5), setZero(3));
}

TEST(SetAssocReplacement, LruEvictsOldestTouchAcrossSets)
{
    // A skewed cache's candidates for one block sit in a different set
    // in each way; LRU ranks them by their own last touch. Find x in
    // way 0, y in way 1 (its way-0 set is x's) in another set, and a z
    // whose candidates are exactly x's and y's lines.
    const CacheGeometry geom(1024, 32, 2);
    auto make = [&] {
        return std::make_unique<SetAssocCache>(
            geom, makeIndexFn(IndexKind::IPolySkew, geom.setBits(),
                              geom.ways()),
            ReplKind::Lru);
    };
    auto oldest_y = make();
    const IndexFn &fn = oldest_y->indexFn();
    const std::uint64_t x = 1;
    const std::uint64_t s0 = fn.index(x, 0);
    std::uint64_t y = 0;
    std::uint64_t z = 0;
    for (std::uint64_t b = 2; b < (1 << 16) && !z; ++b) {
        if (fn.index(b, 0) != s0)
            continue;
        if (!y && fn.index(b, 1) != s0)
            y = b;
        else if (y && fn.index(b, 1) == fn.index(y, 1))
            z = b;
    }
    ASSERT_NE(z, 0u);
    const std::uint64_t bx = geom.byteAddr(x);
    const std::uint64_t by = geom.byteAddr(y);
    const std::uint64_t bz = geom.byteAddr(z);

    oldest_y->access(bx, false);
    oldest_y->access(by, false);
    oldest_y->access(bx, false);
    EXPECT_EQ(oldest_y->access(bz, false).evictedAddr, by);

    auto oldest_x = make();
    oldest_x->access(bx, false);
    oldest_x->access(by, false);
    oldest_x->access(by, false);
    EXPECT_EQ(oldest_x->access(bz, false).evictedAddr, bx);
}

TEST(SetAssocReplacement, FifoIgnoresTouches)
{
    auto c = fourWayCache(ReplKind::Fifo);
    fillSetZero(*c, {0, 1, 2, 3});
    for (int i = 0; i < 5; ++i)
        c->access(setZero(0), false);
    EXPECT_EQ(evictedBy(*c, 4), setZero(0));
    c->access(setZero(1), false);
    EXPECT_EQ(evictedBy(*c, 5), setZero(1));
}

TEST(SetAssocReplacement, RandomRepeatsInTwoCachesAndReachesEveryWay)
{
    auto a = fourWayCache(ReplKind::Random);
    auto b = fourWayCache(ReplKind::Random);
    fillSetZero(*a, {0, 1, 2, 3});
    fillSetZero(*b, {0, 1, 2, 3});
    // Track each resident block's way: a miss takes its victim's way.
    std::map<std::uint64_t, unsigned> way_of;
    for (unsigned k = 0; k < 4; ++k)
        way_of[setZero(k)] = k;
    bool seen[4] = {};
    for (unsigned k = 4; k < 204; ++k) {
        const std::uint64_t victim = evictedBy(*a, k);
        ASSERT_EQ(evictedBy(*b, k), victim) << k;
        ASSERT_EQ(way_of.count(victim), 1u) << k;
        seen[way_of[victim]] = true;
        way_of[setZero(k)] = way_of[victim];
        way_of.erase(victim);
    }
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(SetAssocReplacement, NruEvictsFirstUnreferenced)
{
    auto c = fourWayCache(ReplKind::Nru);
    fillSetZero(*c, {0, 1, 2, 3});
    c->access(setZero(0), false);
    c->access(setZero(2), false);
    EXPECT_EQ(evictedBy(*c, 4), setZero(1));
}

TEST(SetAssocReplacement, NruAgesEveryLineWhenAllAreReferenced)
{
    auto c = fourWayCache(ReplKind::Nru);
    fillSetZero(*c, {0, 1, 2, 3});
    for (unsigned k = 0; k < 4; ++k)
        c->access(setZero(k), false);
    // Every bit set: clear them all and take way 0.
    EXPECT_EQ(evictedBy(*c, 4), setZero(0));
    // Were the bits not cleared, referencing way 0's new line would
    // leave every bit set again and the next miss would take way 0.
    c->access(setZero(4), false);
    EXPECT_EQ(evictedBy(*c, 5), setZero(1));
}

} // anonymous namespace
} // namespace cac
