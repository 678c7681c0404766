/**
 * @file
 * Cross-organization property tests: invariants every CacheModel must
 * satisfy, instantiated over all ten organizations of the comparison
 * set (direct-mapped through fully associative). These catch contract
 * violations that organization-specific tests can miss.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/experiment.hh"
#include "core/registry.hh"

namespace cac
{
namespace
{

class OrgProperty : public ::testing::TestWithParam<std::string>
{
  protected:
    std::unique_ptr<CacheModel>
    make(bool write_allocate = true) const
    {
        OrgSpec spec;
        spec.writeAllocate = write_allocate;
        return makeOrganization(GetParam(), spec);
    }
};

TEST_P(OrgProperty, SecondAccessToSameBlockHits)
{
    auto cache = make();
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        const std::uint64_t addr = rng.nextBelow(1 << 22) & ~7ull;
        cache->access(addr, false);
        EXPECT_TRUE(cache->access(addr, false).hit) << addr;
    }
}

TEST_P(OrgProperty, ProbeAgreesWithAccessOutcome)
{
    auto cache = make();
    Rng rng(2);
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t addr = rng.nextBelow(1 << 18) & ~7ull;
        const bool present = cache->probe(addr);
        const bool hit = cache->access(addr, false).hit;
        EXPECT_EQ(present, hit);
    }
}

TEST_P(OrgProperty, ProbeIsSideEffectFree)
{
    auto cache = make();
    Rng rng(3);
    // Interleave probes with accesses; stats must count only accesses.
    std::uint64_t accesses = 0;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t addr = rng.nextBelow(1 << 18) & ~7ull;
        if (i % 3 == 0) {
            cache->access(addr, false);
            ++accesses;
        } else {
            cache->probe(addr);
        }
    }
    EXPECT_EQ(cache->stats().accesses(), accesses);
}

TEST_P(OrgProperty, ResidencyNeverExceedsCapacity)
{
    auto cache = make();
    for (std::uint64_t a = 0; a < (1 << 20); a += 32)
        cache->access(a, false);
    std::uint64_t resident = 0;
    for (std::uint64_t a = 0; a < (1 << 20); a += 32)
        resident += cache->probe(a);
    // The victim organization holds its buffer lines on top of the
    // main array, so allow the spec's default victim capacity.
    EXPECT_LE(resident, cache->geometry().numBlocks() + OrgSpec{}.victimBlocks);
    // And the cache should actually be holding a useful fraction.
    EXPECT_GE(resident, cache->geometry().numBlocks() / 2);
}

TEST_P(OrgProperty, InvalidateRemovesExactlyThatBlock)
{
    auto cache = make();
    // Two blocks in different sets under every organization (64 bytes
    // apart), so neither can evict the other.
    cache->access(0x10000, false);
    cache->access(0x10040, false);
    EXPECT_TRUE(cache->invalidate(0x10000));
    EXPECT_FALSE(cache->probe(0x10000));
    EXPECT_TRUE(cache->probe(0x10040));
    EXPECT_FALSE(cache->invalidate(0x10000)); // idempotent
}

TEST_P(OrgProperty, FlushEmptiesEverything)
{
    auto cache = make();
    Rng rng(4);
    for (int i = 0; i < 1000; ++i)
        cache->access(rng.nextBelow(1 << 18) & ~7ull, false);
    cache->flush();
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(cache->probe(rng.nextBelow(1 << 18) & ~7ull));
}

TEST_P(OrgProperty, MissCountsAreConsistent)
{
    auto cache = make();
    Rng rng(5);
    for (int i = 0; i < 5000; ++i)
        cache->access(rng.nextBelow(1 << 19) & ~7ull, rng.chance(0.3));
    const CacheStats &s = cache->stats();
    EXPECT_EQ(s.accesses(), 5000u);
    EXPECT_EQ(s.hits() + s.misses(), s.accesses());
    EXPECT_LE(s.loadMisses, s.loads);
    EXPECT_LE(s.storeMisses, s.stores);
    EXPECT_GE(s.missRatio(), 0.0);
    EXPECT_LE(s.missRatio(), 1.0);
}

TEST_P(OrgProperty, WriteNoAllocateNeverCachesStoreMisses)
{
    auto cache = make(/*write_allocate=*/false);
    Rng rng(6);
    for (int i = 0; i < 500; ++i) {
        const std::uint64_t addr = rng.nextBelow(1 << 20) & ~7ull;
        if (!cache->probe(addr)) {
            cache->access(addr, true);
            EXPECT_FALSE(cache->probe(addr)) << addr;
        }
    }
}

TEST_P(OrgProperty, DeterministicReplay)
{
    auto a = make();
    auto b = make();
    Rng rng(7);
    std::vector<std::uint64_t> addrs;
    for (int i = 0; i < 3000; ++i)
        addrs.push_back(rng.nextBelow(1 << 19) & ~7ull);
    runAddressStream(*a, addrs);
    runAddressStream(*b, addrs);
    EXPECT_EQ(a->stats().loadMisses, b->stats().loadMisses);
}

TEST_P(OrgProperty, SingleBlockWorkingSetAlwaysHitsAfterWarmup)
{
    auto cache = make();
    cache->access(0x4440, false);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(cache->access(0x4440 + (i % 4) * 8, false).hit);
}

INSTANTIATE_TEST_SUITE_P(
    AllOrganizations, OrgProperty,
    ::testing::ValuesIn(standardComparisonLabels()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

} // anonymous namespace
} // namespace cac
