/**
 * @file
 * Tests for compiled index plans: every in-tree IndexFn must lower to a
 * plan that agrees with its virtual index() on every (address, way),
 * and the compiler must pick the expected evaluation strategy.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "index/factory.hh"
#include "index/index_fn.hh"
#include "index/index_plan.hh"
#include "index/ipoly.hh"
#include "index/xor_skew.hh"

namespace cac
{
namespace
{

/** 100k block addresses: uniform random plus power-of-two strides. */
std::vector<std::uint64_t>
testAddresses()
{
    std::vector<std::uint64_t> addrs;
    addrs.reserve(100000);
    Rng rng(7);
    while (addrs.size() < 60000)
        addrs.push_back(rng.next() & ((std::uint64_t{1} << 40) - 1));
    // Strided runs, including the pathological power-of-two strides.
    for (std::uint64_t stride : {1, 3, 8, 64, 128, 1024, 4096}) {
        for (std::uint64_t i = 0; i < 40000 / 7; ++i)
            addrs.push_back((std::uint64_t{1} << 20) + i * stride);
    }
    return addrs;
}

/**
 * Plan and virtual path agree on every (address, way), through the
 * scalar entry points AND the batch ones (indexSetsBatch for every
 * plan kind; indexPackedBatch + wayFromPacked for packed-capable
 * plans) — the batch path is the sweep engine's hot path, so any
 * divergence from index() would silently corrupt whole sweeps.
 */
void
expectPlanMatchesVirtual(const IndexFn &fn)
{
    const IndexPlan plan = fn.compile();
    ASSERT_EQ(plan.setBits(), fn.setBits());
    ASSERT_EQ(plan.numWays(), fn.numWays());

    const std::vector<std::uint64_t> addrs = testAddresses();
    std::vector<std::uint64_t> all(fn.numWays());
    for (std::uint64_t addr : addrs) {
        plan.indexAll(addr, all.data());
        for (unsigned w = 0; w < fn.numWays(); ++w) {
            const std::uint64_t want = fn.index(addr, w);
            ASSERT_EQ(plan.indexOne(addr, w), want)
                << fn.name() << " addr=" << addr << " way=" << w;
            ASSERT_EQ(all[w], want)
                << fn.name() << " addr=" << addr << " way=" << w;
        }
    }

    // Batch evaluation over the whole stream at once. The length is
    // not a multiple of the SIMD width, so the scalar tail runs too.
    std::vector<std::uint64_t> batch(addrs.size() * fn.numWays());
    plan.indexSetsBatch(addrs.data(), addrs.size(), batch.data());
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        for (unsigned w = 0; w < fn.numWays(); ++w) {
            ASSERT_EQ(batch[i * fn.numWays() + w],
                      fn.index(addrs[i], w))
                << fn.name() << " batch addr=" << addrs[i]
                << " way=" << w;
        }
    }

    if (plan.packedCapable()) {
        std::vector<std::uint64_t> packed(addrs.size());
        plan.indexPackedBatch(addrs.data(), addrs.size(), packed.data());
        for (std::size_t i = 0; i < addrs.size(); ++i) {
            ASSERT_EQ(packed[i], plan.packedOne(addrs[i]))
                << fn.name() << " addr=" << addrs[i];
            for (unsigned w = 0; w < fn.numWays(); ++w) {
                ASSERT_EQ(plan.wayFromPacked(packed[i], w),
                          fn.index(addrs[i], w))
                    << fn.name() << " packed addr=" << addrs[i]
                    << " way=" << w;
            }
        }
    }
}

TEST(IndexPlan, ModuloCompilesToShiftAndMask)
{
    ModuloIndex fn(7, 2);
    const IndexPlan plan = fn.compile();
    EXPECT_EQ(plan.kind(), IndexPlan::Kind::Modulo);
    EXPECT_TRUE(plan.uniform());
    expectPlanMatchesVirtual(fn);
}

TEST(IndexPlan, XorSkewCompilesToPackedTables)
{
    for (bool skewed : {false, true}) {
        XorSkewIndex fn(7, 2, skewed);
        const IndexPlan plan = fn.compile();
        EXPECT_EQ(plan.kind(), IndexPlan::Kind::Packed);
        EXPECT_EQ(plan.uniform(), !skewed);
        expectPlanMatchesVirtual(fn);
    }
}

TEST(IndexPlan, IPolyCompilesToPackedTables)
{
    for (bool skewed : {false, true}) {
        IPolyIndex fn(7, 2, 14, skewed);
        const IndexPlan plan = fn.compile();
        EXPECT_EQ(plan.kind(), IndexPlan::Kind::Packed);
        EXPECT_EQ(plan.uniform(), !skewed);
        expectPlanMatchesVirtual(fn);
    }
}

TEST(IndexPlan, WideAssociativityFallsBackToRowMasks)
{
    // 16 ways x 8 index bits = 128 packed bits > 64: the packed-table
    // form cannot hold all ways, so the compiler keeps row masks.
    XorSkewIndex fn(8, 16, true);
    const IndexPlan plan = fn.compile();
    EXPECT_EQ(plan.kind(), IndexPlan::Kind::RowMask);
    EXPECT_FALSE(plan.uniform());
    expectPlanMatchesVirtual(fn);
}

TEST(IndexPlan, OddGeometriesMatch)
{
    expectPlanMatchesVirtual(ModuloIndex(5, 3));
    expectPlanMatchesVirtual(XorSkewIndex(5, 7, true));
    expectPlanMatchesVirtual(IPolyIndex(8, 4, 17, true));
    expectPlanMatchesVirtual(IPolyIndex(10, 1, 20, false));
}

TEST(IndexPlan, EveryFactoryKindMatches)
{
    for (IndexKind kind : {IndexKind::Modulo, IndexKind::Xor,
                           IndexKind::XorSkew, IndexKind::IPoly,
                           IndexKind::IPolySkew}) {
        auto fn = makeIndexFn(kind, 7, 2, 14);
        expectPlanMatchesVirtual(*fn);
    }
}

/** Out-of-tree subclass without a compile() override. */
class UpperBitsIndex : public IndexFn
{
  public:
    UpperBitsIndex() : IndexFn(6, 2) {}
    std::uint64_t index(std::uint64_t block_addr,
                        unsigned way) const override
    {
        return (block_addr >> (4 + way)) & 0x3f;
    }
    bool isSkewed() const override { return true; }
    std::string name() const override { return "upper-bits"; }
};

TEST(IndexPlan, UnknownSubclassFallsBackToCallback)
{
    UpperBitsIndex fn;
    const IndexPlan plan = fn.compile();
    EXPECT_EQ(plan.kind(), IndexPlan::Kind::Callback);
    expectPlanMatchesVirtual(fn);
}

TEST(IndexPlan, ForceCallbackHookRoutesCompilePlan)
{
    ModuloIndex fn(7, 2);
    EXPECT_EQ(compilePlan(fn).kind(), IndexPlan::Kind::Modulo);
    IndexPlan::forceCallbackForTests(true);
    EXPECT_TRUE(IndexPlan::callbackForced());
    EXPECT_EQ(compilePlan(fn).kind(), IndexPlan::Kind::Callback);
    IndexPlan::forceCallbackForTests(false);
    EXPECT_FALSE(IndexPlan::callbackForced());
    EXPECT_EQ(compilePlan(fn).kind(), IndexPlan::Kind::Modulo);
}

} // anonymous namespace
} // namespace cac
