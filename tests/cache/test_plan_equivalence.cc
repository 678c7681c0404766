/**
 * @file
 * End-to-end equivalence of the compiled-plan hot path: for every
 * registry organization, a cache built on compiled IndexPlans must
 * produce CacheStats identical to one forced onto the virtual
 * IndexFn::index() path (IndexPlan::forceCallbackForTests), over 100k
 * random + strided addresses with a mixed load/store pattern.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/set_assoc.hh"
#include "common/rng.hh"
#include "core/registry.hh"
#include "index/index_plan.hh"

namespace cac
{
namespace
{

/** Scoped force of the Callback (virtual) compilation path. */
class ForceVirtualPath
{
  public:
    ForceVirtualPath() { IndexPlan::forceCallbackForTests(true); }
    ~ForceVirtualPath() { IndexPlan::forceCallbackForTests(false); }
};

/** 100k byte addresses: random region traffic plus strided sweeps. */
std::vector<std::uint64_t>
testAddresses()
{
    std::vector<std::uint64_t> addrs;
    addrs.reserve(100000);
    Rng rng(13);
    while (addrs.size() < 60000)
        addrs.push_back(rng.next() & ((std::uint64_t{1} << 24) - 1));
    for (std::uint64_t stride : {8, 32, 256, 1024, 2048, 4096, 8192}) {
        for (std::uint64_t i = 0; i < 40000 / 7; ++i)
            addrs.push_back((std::uint64_t{1} << 21) + i * stride);
    }
    return addrs;
}

/**
 * Drive the full access surface: scalar loads/stores, batch loads,
 * probes and invalidations, then return the stats.
 */
CacheStats
drive(CacheModel &cache, const std::vector<std::uint64_t> &addrs)
{
    for (std::size_t i = 0; i < addrs.size(); ++i)
        cache.access(addrs[i], i % 5 == 0); // every 5th access a store
    cache.accessBatch(addrs.data(), addrs.size() / 2, false);
    for (std::size_t i = 0; i < addrs.size(); i += 97)
        cache.invalidate(addrs[i]);
    cache.accessBatch(addrs.data() + addrs.size() / 2,
                      addrs.size() / 2, false);
    return cache.stats();
}

void
expectStatsEqual(const CacheStats &a, const CacheStats &b,
                 const std::string &label)
{
    EXPECT_EQ(a.loads, b.loads) << label;
    EXPECT_EQ(a.stores, b.stores) << label;
    EXPECT_EQ(a.loadMisses, b.loadMisses) << label;
    EXPECT_EQ(a.storeMisses, b.storeMisses) << label;
    EXPECT_EQ(a.fills, b.fills) << label;
    EXPECT_EQ(a.evictions, b.evictions) << label;
    EXPECT_EQ(a.writebacks, b.writebacks) << label;
    EXPECT_EQ(a.invalidations, b.invalidations) << label;
    EXPECT_EQ(a.firstProbeHits, b.firstProbeHits) << label;
    EXPECT_EQ(a.secondProbeHits, b.secondProbeHits) << label;
}

TEST(PlanEquivalence, EveryRegistryOrganizationIsStatsIdentical)
{
    const std::vector<std::uint64_t> addrs = testAddresses();

    // One example label per registry entry, plus wider/deeper family
    // members to cover 4/8-way and the RowMask fallback geometries.
    std::vector<std::string> labels =
        OrgRegistry::global().exampleLabels();
    for (const char *extra : {"a4", "a4-Hx-Sk", "a4-Hp-Sk", "a8-Hx-Sk",
                              "a2-Hx", "a2-Hp"}) {
        labels.push_back(extra);
    }

    OrgSpec spec;
    for (const std::string &label : labels) {
        CacheStats with_virtual;
        {
            ForceVirtualPath forced;
            auto cache = makeOrganization(label, spec);
            with_virtual = drive(*cache, addrs);
        }
        CacheStats with_plan;
        {
            auto cache = makeOrganization(label, spec);
            with_plan = drive(*cache, addrs);
        }
        expectStatsEqual(with_plan, with_virtual, label);
    }
}

/**
 * accessBatch() must be stats-identical to an access() loop over the
 * same stream, for every registry organization. Run lengths vary from
 * 1 to several thousand so the batch tiling (256-address index blocks)
 * is crossed at every alignment — this is the direct guard on the
 * precomputed-index fast path the sweep engine runs on.
 */
TEST(PlanEquivalence, BatchPathMatchesScalarPath)
{
    const std::vector<std::uint64_t> addrs = testAddresses();

    std::vector<std::string> labels =
        OrgRegistry::global().exampleLabels();
    for (const char *extra : {"a4", "a4-Hp-Sk", "a8-Hx-Sk"})
        labels.push_back(extra);

    OrgSpec spec;
    for (const std::string &label : labels) {
        auto scalar_cache = makeOrganization(label, spec);
        auto batch_cache = makeOrganization(label, spec);

        std::size_t pos = 0;
        std::size_t run = 1;
        bool write = false;
        while (pos < addrs.size()) {
            const std::size_t n = std::min(run, addrs.size() - pos);
            for (std::size_t i = pos; i < pos + n; ++i)
                scalar_cache->access(addrs[i], write);
            batch_cache->accessBatch(addrs.data() + pos, n, write);
            pos += n;
            write = !write;
            run = run * 3 + 1;
            if (run > 5000)
                run = 1;
        }
        expectStatsEqual(batch_cache->stats(), scalar_cache->stats(),
                         label + " batch-vs-scalar");
    }
}

TEST(PlanEquivalence, WriteBackAndNoAllocateVariants)
{
    const std::vector<std::uint64_t> addrs = testAddresses();
    OrgSpec spec;
    spec.writeAllocate = false;
    for (const std::string &label :
         {std::string("a2-Hp-Sk"), std::string("column-poly"),
          std::string("victim")}) {
        CacheStats with_virtual;
        {
            ForceVirtualPath forced;
            auto cache = makeOrganization(label, spec);
            with_virtual = drive(*cache, addrs);
        }
        CacheStats with_plan;
        {
            auto cache = makeOrganization(label, spec);
            with_plan = drive(*cache, addrs);
        }
        expectStatsEqual(with_plan, with_virtual, label + " no-WA");
    }
}

} // anonymous namespace
} // namespace cac
