/**
 * @file
 * Tests for the set-associative / skewed cache model.
 */

#include <gtest/gtest.h>

#include "cache/set_assoc.hh"
#include "common/rng.hh"
#include "index/factory.hh"

namespace cac
{
namespace
{

std::unique_ptr<SetAssocCache>
makeCache(IndexKind kind = IndexKind::Modulo,
          WriteAllocate wa = WriteAllocate::Yes,
          const CacheGeometry &geom = CacheGeometry::paperL1_8k())
{
    return std::make_unique<SetAssocCache>(
        geom, makeIndexFn(kind, geom.setBits(), geom.ways(), 14),
        ReplKind::Lru, wa);
}

TEST(SetAssocCache, ColdMissThenHit)
{
    auto c = makeCache();
    EXPECT_FALSE(c->access(0x1000, false).hit);
    EXPECT_TRUE(c->access(0x1000, false).hit);
    EXPECT_TRUE(c->access(0x101F, false).hit); // same 32B block
    EXPECT_FALSE(c->access(0x1020, false).hit); // next block
    EXPECT_EQ(c->stats().loads, 4u);
    EXPECT_EQ(c->stats().loadMisses, 2u);
}

TEST(SetAssocCache, TwoWaysHoldTwoConflictingBlocks)
{
    auto c = makeCache();
    // Same set (4KB apart), two ways: both should stick.
    c->access(0x0000, false);
    c->access(0x1000, false);
    EXPECT_TRUE(c->access(0x0000, false).hit);
    EXPECT_TRUE(c->access(0x1000, false).hit);
}

TEST(SetAssocCache, ThirdConflictingBlockEvictsLru)
{
    auto c = makeCache();
    c->access(0x0000, false); // way A
    c->access(0x1000, false); // way B
    c->access(0x0000, false); // touch: 0x1000 is now LRU
    auto r = c->access(0x2000, false); // evicts 0x1000
    EXPECT_FALSE(r.hit);
    ASSERT_TRUE(r.evictedAddr.has_value());
    EXPECT_EQ(*r.evictedAddr, 0x1000u);
    EXPECT_TRUE(c->access(0x0000, false).hit);
    EXPECT_FALSE(c->access(0x1000, false).hit);
}

TEST(SetAssocCache, ProbeHasNoSideEffects)
{
    auto c = makeCache();
    c->access(0x0000, false);
    c->access(0x1000, false);
    // Probing 0x0000 must not refresh its LRU position.
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(c->probe(0x0000));
    c->access(0x2000, false); // LRU is 0x0000 (probes didn't touch)
    EXPECT_FALSE(c->probe(0x0000));
    EXPECT_TRUE(c->probe(0x1000));
    const CacheStats &s = c->stats();
    EXPECT_EQ(s.loads, 3u); // probes not counted
}

TEST(SetAssocCache, InvalidateRemovesBlock)
{
    auto c = makeCache();
    c->access(0x5000, false);
    EXPECT_TRUE(c->invalidate(0x5008)); // same block
    EXPECT_FALSE(c->probe(0x5000));
    EXPECT_FALSE(c->invalidate(0x5000)); // already gone
    EXPECT_EQ(c->stats().invalidations, 1u);
}

TEST(SetAssocCache, FlushEmptiesEverything)
{
    auto c = makeCache();
    for (std::uint64_t a = 0; a < 8192; a += 32)
        c->access(a, false);
    c->flush();
    for (std::uint64_t a = 0; a < 8192; a += 32)
        EXPECT_FALSE(c->probe(a));
}

TEST(SetAssocCache, WriteNoAllocateSkipsFill)
{
    auto c = makeCache(IndexKind::Modulo, WriteAllocate::No);
    auto r = c->access(0x3000, true);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.filled);
    EXPECT_FALSE(c->probe(0x3000));
    EXPECT_EQ(c->stats().storeMisses, 1u);
}

TEST(SetAssocCache, WriteAllocateFills)
{
    auto c = makeCache(IndexKind::Modulo, WriteAllocate::Yes);
    c->access(0x3000, true);
    EXPECT_TRUE(c->probe(0x3000));
    EXPECT_TRUE(c->access(0x3000, true).hit);
}

TEST(SetAssocCache, FillBypassesAccessCounters)
{
    auto c = makeCache();
    c->fill(0x4000);
    EXPECT_TRUE(c->probe(0x4000));
    EXPECT_EQ(c->stats().loads, 0u);
    EXPECT_EQ(c->stats().fills, 1u);
}

TEST(SetAssocCache, SkewedPlacementStoresFullBlockAddress)
{
    // Under a skewed index the same block maps to different sets per
    // way; hits must still be exact-block matches.
    auto c = makeCache(IndexKind::IPolySkew);
    Rng rng(1);
    std::vector<std::uint64_t> addrs;
    for (int i = 0; i < 64; ++i)
        addrs.push_back(rng.nextBelow(1 << 22) & ~31ull);
    for (auto a : addrs)
        c->access(a, false);
    // No false hits: a fresh distinct block must miss.
    std::uint64_t fresh = (1ull << 23) | 0x40;
    EXPECT_FALSE(c->access(fresh, false).hit);
}

TEST(SetAssocCache, SkewedAbsorbsConventionalConflicts)
{
    // Three blocks congruent mod 4KB thrash a conventional 2-way set
    // but coexist under skewed I-Poly placement.
    auto conv = makeCache(IndexKind::Modulo);
    auto poly = makeCache(IndexKind::IPolySkew);
    const std::uint64_t addrs[] = {0x0000, 0x1000, 0x2000};
    for (int round = 0; round < 50; ++round)
        for (auto a : addrs) {
            conv->access(a, false);
            poly->access(a, false);
        }
    EXPECT_GT(conv->stats().loadMisses, 100u); // thrash
    EXPECT_LE(poly->stats().loadMisses, 6u);   // compulsory-ish
}

TEST(SetAssocCache, CapacityBound)
{
    // Never hold more distinct blocks than the geometry allows.
    auto c = makeCache(IndexKind::IPolySkew);
    for (std::uint64_t a = 0; a < (1 << 20); a += 32)
        c->access(a, false);
    unsigned resident = 0;
    for (std::uint64_t a = 0; a < (1 << 20); a += 32)
        resident += c->probe(a);
    EXPECT_LE(resident, c->geometry().numBlocks());
}

TEST(SetAssocCache, StatsResetKeepsContents)
{
    auto c = makeCache();
    c->access(0x7000, false);
    c->resetStats();
    EXPECT_EQ(c->stats().loads, 0u);
    EXPECT_TRUE(c->probe(0x7000));
}

TEST(SetAssocCache, NameIncludesGeometryAndScheme)
{
    auto c = makeCache(IndexKind::IPolySkew);
    EXPECT_EQ(c->name(), "8KB 2-way 32B a2-Hp-Sk");
}

/** The placement plans the twin test drives, one per IndexPlan kind. */
struct TwinPlan
{
    const char *name;
    IndexKind kind;
    CacheGeometry geometry;
    bool force_callback;
    IndexPlan::Kind expect;
};

bool
sameResult(const AccessResult &a, const AccessResult &b)
{
    return a.hit == b.hit && a.filled == b.filled
        && a.evictedAddr == b.evictedAddr;
}

void
expectSameStats(const CacheStats &a, const CacheStats &b,
                std::uint64_t fill_only, const std::string &where)
{
    // fill() counts a fill but no load; every other counter must agree.
    EXPECT_EQ(a.loads, b.loads + fill_only) << where;
    EXPECT_EQ(a.loadMisses, b.loadMisses + fill_only) << where;
    EXPECT_EQ(a.stores, b.stores) << where;
    EXPECT_EQ(a.storeMisses, b.storeMisses) << where;
    EXPECT_EQ(a.fills, b.fills) << where;
    EXPECT_EQ(a.evictions, b.evictions) << where;
    EXPECT_EQ(a.writebacks, b.writebacks) << where;
}

/**
 * tryAccess() against access() on twin caches, for every plan kind and
 * every replacement policy: an accepted call is exactly an access(), a
 * refused miss changes nothing (stats, contents, and — because the
 * reference twin never sees it — every later outcome), and fill()
 * picks the same victim as a miss's fill.
 */
TEST(SetAssocCache, TryAccessMatchesAccessOnEveryPlanAndPolicy)
{
    const CacheGeometry l1 = CacheGeometry::paperL1_8k();
    const CacheGeometry wide(128 * 1024, 32, 8); // 8 ways x 9 set bits
    const TwinPlan plans[] = {
        {"modulo", IndexKind::Modulo, l1, false, IndexPlan::Kind::Modulo},
        {"packed", IndexKind::IPoly, l1, false, IndexPlan::Kind::Packed},
        {"packed-skew", IndexKind::IPolySkew, l1, false,
         IndexPlan::Kind::Packed},
        {"rowmask", IndexKind::IPoly, wide, false,
         IndexPlan::Kind::RowMask},
        {"callback", IndexKind::IPolySkew, l1, true,
         IndexPlan::Kind::Callback},
    };
    const ReplKind policies[] = {ReplKind::Lru, ReplKind::Fifo,
                                 ReplKind::Random, ReplKind::Nru};
    for (const TwinPlan &plan : plans) {
        for (ReplKind policy : policies) {
            for (WriteAllocate wa : {WriteAllocate::Yes, WriteAllocate::No}) {
                const CacheGeometry &g = plan.geometry;
                IndexPlan::forceCallbackForTests(plan.force_callback);
                auto make = [&] {
                    return SetAssocCache(
                        g, makeIndexFn(plan.kind, g.setBits(), g.ways(), 14),
                        policy, wa);
                };
                SetAssocCache ref = make();
                SetAssocCache twin = make();
                IndexPlan::forceCallbackForTests(false);
                ASSERT_EQ(twin.indexPlan().kind(), plan.expect) << plan.name;

                const std::string where = std::string(plan.name) + " "
                    + std::to_string(static_cast<int>(policy))
                    + (wa == WriteAllocate::Yes ? " wa" : " nwa");
                Rng rng(17);
                std::uint64_t fill_only = 0;
                std::uint64_t refused = 0;
                for (int i = 0; i < 20000; ++i) {
                    const std::uint64_t addr =
                        rng.nextBelow(4 * g.sizeBytes()) & ~31ull;
                    const bool is_write = rng.chance(0.3);
                    const bool present = twin.probe(addr);
                    ASSERT_EQ(present, ref.probe(addr)) << where;

                    if (!present && rng.chance(0.05)) {
                        // Fill without an access: same victim as the
                        // reference twin's load-miss fill.
                        const AccessResult want = ref.access(addr, false);
                        const AccessResult got = twin.fill(addr);
                        ASSERT_TRUE(sameResult(want, got)) << where;
                        ++fill_only;
                        continue;
                    }

                    const bool allow_fill = rng.chance(0.5);
                    const CacheStats before = twin.stats();
                    AccessResult got;
                    const bool accepted =
                        twin.tryAccess(addr, is_write, allow_fill, got);
                    ASSERT_EQ(accepted, present || allow_fill) << where;
                    if (!accepted) {
                        ++refused;
                        expectSameStats(before, twin.stats(), 0, where);
                        ASSERT_FALSE(twin.probe(addr)) << where;
                        continue;
                    }
                    const AccessResult want = ref.access(addr, is_write);
                    ASSERT_TRUE(sameResult(want, got)) << where << " i=" << i;
                }
                expectSameStats(ref.stats(), twin.stats(), fill_only, where);
                EXPECT_GT(refused, 0u) << where;
                EXPECT_GT(fill_only, 0u) << where;
            }
        }
    }
}

} // anonymous namespace
} // namespace cac
