/**
 * @file
 * Regression and invariant tests for the coherent system:
 *
 *  - "2lvl:" and a 1-core "mc:" target (both a one-core
 *    CoherentSystem) reproduce a frozen table of L1, L2 and hole
 *    counters on every registry organization. The table was recorded
 *    from the former standalone two-level hierarchy, so the one
 *    virtual-real data path keeps its behaviour access for access;
 *  - randomized seeded interleavings of per-core streams conserve the
 *    issued work: global load/store totals equal the per-core sums,
 *    per-core rows depend only on the core's own stream content (not
 *    on the interleaving order), and the invariants (routing, one
 *    reverse map per block, Inclusion) hold after every batch;
 *  - the shared L2 holds only lines the cores ever fetched: probing
 *    the translations of never-accessed pages misses;
 *  - the batch≡scalar oracle: seeded draws of L1 and L2 organization,
 *    core count, store ratio, write allocation, index-plan kind and
 *    stream, replayed through accessMixed() at random batch sizes,
 *    through accessBatch() in the same batches' same-kind runs, and
 *    through scalar access(), end with identical per-core L1 rows,
 *    L2, holes and inter-core attribution, and all three keep the
 *    invariants at every batch boundary. Failures name the seed and
 *    the drawn configuration.
 */

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/registry.hh"
#include "core/sim_target.hh"
#include "index/index_plan.hh"
#include "multicore/mc_target.hh"
#include "workloads/spec_proxy.hh"

namespace cac
{
namespace
{

Trace
proxyTrace()
{
    static const Trace trace = buildSpecProxy("swim", 40000);
    return trace;
}

TargetStats
replayThrough(const std::string &label, const Trace &trace)
{
    auto target = OrgRegistry::global().buildTarget(label, TargetSpec{});
    target->replay(trace.data(), trace.size());
    target->finish();
    return target->stats();
}

void
expectCacheStatsEqual(const CacheStats &a, const CacheStats &b,
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

void
expectHoleStatsEqual(const HoleStats &a, const HoleStats &b,
                     const std::string &label)
{
    EXPECT_EQ(a.l1Misses, b.l1Misses) << label;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << label;
    EXPECT_EQ(a.l2Replacements, b.l2Replacements) << label;
    EXPECT_EQ(a.inclusionInvalidates, b.inclusionInvalidates) << label;
    EXPECT_EQ(a.holesCreated, b.holesCreated) << label;
    EXPECT_EQ(a.holeRefills, b.holeRefills) << label;
}

/** Counters of one "2lvl:<org>/a4" run over proxyTrace(). */
struct FrozenRow
{
    const char *org;
    CacheStats l1;
    CacheStats l2;
    HoleStats holes;
};

// Recorded from the standalone two-level hierarchy this data path
// replaced. CacheStats fields: loads, stores, loadMisses, storeMisses,
// fills, evictions, writebacks, invalidations, firstProbeHits,
// secondProbeHits. HoleStats fields: l1Misses, l2Misses,
// l2Replacements, inclusionInvalidates, holesCreated, holeRefills,
// externalInvalidates, aliasRemovals.
const FrozenRow kFrozen[] = {
    {"dm",
     {19360, 3680, 13060, 0, 13060, 12818, 0, 0, 0, 0},
     {13060, 0, 1153, 0, 1153, 0, 0, 0, 0, 0},
     {13060, 1153, 0, 0, 0, 0, 0, 0}},
    {"a2",
     {19360, 3680, 13060, 0, 13060, 12818, 0, 0, 0, 0},
     {13060, 0, 1153, 0, 1153, 0, 0, 0, 0, 0},
     {13060, 1153, 0, 0, 0, 0, 0, 0}},
    {"a2-Hx",
     {19360, 3680, 1300, 0, 1300, 1044, 0, 0, 0, 0},
     {1300, 0, 1153, 0, 1153, 0, 0, 0, 0, 0},
     {1300, 1153, 0, 0, 0, 0, 0, 0}},
    {"a2-Hx-Sk",
     {19360, 3680, 1260, 0, 1260, 1004, 0, 0, 0, 0},
     {1260, 0, 1153, 0, 1153, 0, 0, 0, 0, 0},
     {1260, 1153, 0, 0, 0, 0, 0, 0}},
    {"a2-Hp",
     {19360, 3680, 1316, 0, 1316, 1060, 0, 0, 0, 0},
     {1316, 0, 1153, 0, 1153, 0, 0, 0, 0, 0},
     {1316, 1153, 0, 0, 0, 0, 0, 0}},
    {"a2-Hp-Sk",
     {19360, 3680, 1292, 0, 1292, 1036, 0, 0, 0, 0},
     {1292, 0, 1153, 0, 1153, 0, 0, 0, 0, 0},
     {1292, 1153, 0, 0, 0, 0, 0, 0}},
    {"full",
     {19360, 3680, 1345, 0, 1345, 1089, 0, 0, 0, 0},
     {1345, 0, 1153, 0, 1153, 0, 0, 0, 0, 0},
     {1345, 1153, 0, 0, 0, 0, 0, 0}},
    {"victim",
     {19360, 3680, 2891, 0, 2891, 2649, 0, 0, 0, 0},
     {2891, 0, 1153, 0, 1153, 0, 0, 0, 0, 0},
     {2891, 1153, 0, 0, 0, 0, 0, 0}},
    {"hash-rehash",
     {19360, 3680, 13060, 0, 13060, 12818, 0, 0, 9980, 0},
     {13060, 0, 1153, 0, 1153, 0, 0, 0, 0, 0},
     {13060, 1153, 0, 0, 0, 0, 0, 0}},
    {"column-poly",
     {19360, 3680, 2618, 0, 2618, 2417, 0, 0, 9872, 10550},
     {2618, 0, 1153, 0, 1153, 0, 0, 0, 0, 0},
     {2618, 1153, 0, 0, 0, 0, 0, 0}},
};

TEST(McDifferential, OneCoreReproducesFrozenTwoLevelOnEveryOrg)
{
    const std::vector<std::string> orgs =
        OrgRegistry::global().exampleLabels();
    ASSERT_EQ(orgs.size(), std::size(kFrozen));
    const Trace trace = proxyTrace();
    for (std::size_t i = 0; i < orgs.size(); ++i) {
        const FrozenRow &want = kFrozen[i];
        ASSERT_EQ(orgs[i], want.org);
        const TargetStats two =
            replayThrough("2lvl:" + orgs[i] + "/a4", trace);
        const TargetStats one =
            replayThrough("mc:1x" + orgs[i] + "/a4", trace);
        for (const TargetStats *got : {&two, &one}) {
            const std::string label = targetKindName(got->kind) + " "
                + orgs[i];
            ASSERT_TRUE(got->hasHierarchy) << label;
            expectCacheStatsEqual(got->l1, want.l1, label + " L1");
            expectCacheStatsEqual(got->l2, want.l2, label + " L2");
            expectHoleStatsEqual(got->holes, want.holes, label + " holes");
        }
        EXPECT_FALSE(two.hasMultiCore) << want.org;
        // One core has nobody to conflict with.
        ASSERT_TRUE(one.hasMultiCore) << want.org;
        EXPECT_EQ(one.mc.totalInterCoreConflictMisses(), 0u) << want.org;
        // The single per-core row *is* the aggregate.
        ASSERT_EQ(one.mc.cores.size(), 1u) << want.org;
        expectCacheStatsEqual(one.mc.cores[0].l1, want.l1,
                              std::string(want.org) + " core row");
    }
}

/** Deterministic per-core stream inside core @p c's ASID window. */
std::vector<std::uint64_t>
coreStream(unsigned c, std::size_t n, std::uint64_t window)
{
    std::vector<std::uint64_t> addrs;
    addrs.reserve(n);
    std::uint64_t lcg = 0x9E3779B97F4A7C15ull * (c + 1);
    for (std::size_t i = 0; i < n; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        // A 64KB footprint per core: small enough to rereference,
        // large enough to stress the shared L2.
        addrs.push_back(c * window + ((lcg >> 24) & 0xFFFFull));
    }
    return addrs;
}

/**
 * Interleave the per-core streams in a seed-dependent order and drive
 * the mc target in short bursts through accessBatch (runs of 1
 * exercise the demultiplexer's worst case), checking the system's
 * invariants after every burst.
 */
TargetStats
replayInterleaved(const std::vector<std::vector<std::uint64_t>> &streams,
                  std::uint64_t seed, MultiCoreTarget &target)
{
    const CoherentSystem &sys = target.system();
    std::vector<std::size_t> pos(streams.size(), 0);
    std::uint64_t lcg = seed;
    for (;;) {
        // Pick a random core that still has addresses to issue.
        std::vector<unsigned> live;
        for (unsigned c = 0; c < streams.size(); ++c) {
            if (pos[c] < streams[c].size())
                live.push_back(c);
        }
        if (live.empty())
            break;
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const unsigned c = live[(lcg >> 33) % live.size()];
        // A short burst, as a scheduler quantum would produce.
        const std::size_t burst =
            std::min<std::size_t>(1 + ((lcg >> 20) & 7),
                                  streams[c].size() - pos[c]);
        target.accessBatch(streams[c].data() + pos[c], burst, false);
        pos[c] += burst;
        if (!sys.checkCoherence() || !sys.checkInclusion()) {
            ADD_FAILURE() << "invariants broken, seed " << seed
                          << ", core " << c << " at " << pos[c];
            break;
        }
    }
    target.finish();
    return target.stats();
}

TEST(McDifferential, InterleavingsConserveWorkAndKeepInvariants)
{
    TargetSpec spec;
    const std::uint64_t window = spec.mcWindowBytes;
    std::vector<std::vector<std::uint64_t>> streams;
    std::size_t issued = 0;
    for (unsigned c = 0; c < 4; ++c) {
        streams.push_back(coreStream(c, 12000, window));
        issued += streams.back().size();
    }

    std::vector<McCoreStats> reference;
    for (std::uint64_t seed : {1ull, 42ull, 0xFEEDull}) {
        auto built =
            OrgRegistry::global().buildTarget("mc:4xa2-Hp-Sk/a4", spec);
        auto *mc = dynamic_cast<MultiCoreTarget *>(built.get());
        ASSERT_NE(mc, nullptr);
        const TargetStats stats = replayInterleaved(streams, seed, *mc);

        // Global totals equal the per-core sums equal the issued work.
        ASSERT_TRUE(stats.hasMultiCore);
        std::uint64_t core_accesses = 0;
        for (const McCoreStats &core : stats.mc.cores)
            core_accesses += core.l1.accesses();
        EXPECT_EQ(core_accesses, issued) << seed;
        EXPECT_EQ(stats.l1.accesses(), issued) << seed;
        EXPECT_EQ(stats.l1.stores, 0u) << seed;

        // Each core's row depends only on its own stream, so every
        // interleaving must produce the same per-core loads (misses
        // vary: the shared L2's contents depend on the order).
        if (reference.empty()) {
            reference = stats.mc.cores;
        } else {
            for (unsigned c = 0; c < 4; ++c) {
                EXPECT_EQ(stats.mc.cores[c].l1.loads,
                          reference[c].l1.loads)
                    << "seed " << seed << " core " << c;
            }
        }
    }
}

TEST(McDifferential, SharedL2HoldsOnlyFetchedLines)
{
    TargetSpec spec;
    auto built =
        OrgRegistry::global().buildTarget("mc:2xa2/a4", spec);
    auto *mc = dynamic_cast<MultiCoreTarget *>(built.get());
    ASSERT_NE(mc, nullptr);

    std::vector<std::vector<std::uint64_t>> streams;
    for (unsigned c = 0; c < 2; ++c)
        streams.push_back(coreStream(c, 8000, spec.mcWindowBytes));
    replayInterleaved(streams, 7, *mc);

    // The cores touched only the first 64KB of their windows. Pages
    // far above that were never fetched, so their translations must
    // miss in the shared L2 (and in both L1s).
    CoherentSystem &sys = mc->system();
    for (unsigned c = 0; c < 2; ++c) {
        for (unsigned p = 0; p < 32; ++p) {
            const std::uint64_t never =
                c * spec.mcWindowBytes + 0x100000ull + p * 4096;
            const std::uint64_t paddr = sys.pageMap().translate(never);
            EXPECT_FALSE(sys.l2().probe(paddr)) << never;
            EXPECT_FALSE(sys.l1(c).probe(never)) << never;
        }
    }
}

/** One randomly drawn hierarchy configuration. */
struct DrawnConfig
{
    TargetSpec spec;
    std::string l1;
    std::string l2;

    std::string describe() const
    {
        return l1 + "/" + l2 + " L1 " + std::to_string(spec.org.sizeBytes)
            + "B L2 " + std::to_string(spec.l2SizeBytes) + "B page seed "
            + std::to_string(spec.pageSeed);
    }
};

/** Random L1 geometry x registry organization x L2 x page map. */
DrawnConfig
drawConfig(Rng &rng)
{
    static const std::vector<std::string> l1s =
        OrgRegistry::global().exampleLabels();
    static const std::string l2s[] = {"dm", "a2", "a4", "a2-Hp"};
    DrawnConfig cfg;
    cfg.l1 = l1s[rng.nextBelow(l1s.size())];
    cfg.l2 = l2s[rng.nextBelow(4)];
    cfg.spec.org.sizeBytes = std::uint64_t{2048} << rng.nextBelow(4);
    cfg.spec.l2SizeBytes = std::uint64_t{16384} << rng.nextBelow(3);
    cfg.spec.pageSeed = rng.next();
    return cfg;
}

/** Every per-core and L2 counter of @p a equals @p b's. */
void
expectSystemsEqual(const CoherentSystem &a, const CoherentSystem &b,
                   const std::string &label)
{
    const MultiCoreStats sa = a.stats();
    const MultiCoreStats sb = b.stats();
    ASSERT_EQ(sa.cores.size(), sb.cores.size()) << label;
    for (std::size_t c = 0; c < sa.cores.size(); ++c) {
        const std::string core = label + " core " + std::to_string(c);
        const McCoreStats &x = sa.cores[c];
        const McCoreStats &y = sb.cores[c];
        expectCacheStatsEqual(x.l1, y.l1, core);
        expectHoleStatsEqual(x.holes, y.holes, core);
        EXPECT_EQ(x.l2EvictionsByOthers, y.l2EvictionsByOthers) << core;
        EXPECT_EQ(x.interCoreConflictMisses, y.interCoreConflictMisses)
            << core;
    }
    expectCacheStatsEqual(a.l2().stats(), b.l2().stats(), label + " L2");
    expectHoleStatsEqual(a.aggregateHoles(), b.aggregateHoles(),
                         label + " holes");
}

/** An mc: system of @p cores cores built from @p cfg. */
std::unique_ptr<SimTarget>
buildSystem(const DrawnConfig &cfg, unsigned cores)
{
    return OrgRegistry::global().buildTarget(
        "mc:" + std::to_string(cores) + "x" + cfg.l1 + "/" + cfg.l2,
        cfg.spec);
}

TEST(McDifferential, RandomBatchesMatchScalarAccess)
{
    std::uint64_t peer_evictions = 0, holes = 0;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        Rng rng(seed * 7919);
        DrawnConfig cfg = drawConfig(rng);
        const unsigned cores = 1 + static_cast<unsigned>(rng.nextBelow(4));
        const double store_ratio = 0.6 * rng.nextDouble();
        cfg.spec.org.writeAllocate = rng.chance(0.75);
        // Some draws compile every index function to the generic
        // callback plan, so the L1 kernel and the L2 lookup take their
        // paths for plans without packed index words.
        const bool callback_plans = rng.chance(0.25);
        SCOPED_TRACE("seed " + std::to_string(seed) + ": " + cfg.describe()
                     + " cores " + std::to_string(cores) + " stores "
                     + std::to_string(store_ratio) + " write-allocate "
                     + std::to_string(cfg.spec.org.writeAllocate)
                     + " callback plans " + std::to_string(callback_plans));

        IndexPlan::forceCallbackForTests(callback_plans);
        auto batch_built = buildSystem(cfg, cores);
        auto uniform_built = buildSystem(cfg, cores);
        auto scalar_built = buildSystem(cfg, cores);
        IndexPlan::forceCallbackForTests(false);
        CoherentSystem &batch =
            dynamic_cast<MultiCoreTarget &>(*batch_built).system();
        CoherentSystem &uniform =
            dynamic_cast<MultiCoreTarget &>(*uniform_built).system();
        CoherentSystem &scalar =
            dynamic_cast<MultiCoreTarget &>(*scalar_built).system();

        const std::uint64_t window = cfg.spec.mcWindowBytes;
        const std::uint64_t footprint = 6 * cfg.spec.org.sizeBytes;

        // The stream: runs on one core at a time (a scheduling
        // quantum), each reference into a hot set or along a strided
        // sweep.
        std::vector<std::uint64_t> addrs;
        std::unique_ptr<bool[]> writes(new bool[8000]);
        unsigned core = 0;
        std::uint64_t cursor = 0;
        std::uint64_t stride = 8;
        while (addrs.size() < 8000) {
            if (addrs.empty() || rng.chance(0.01)) {
                core = static_cast<unsigned>(rng.nextBelow(cores));
                stride = std::uint64_t{8} << rng.nextBelow(10);
            }
            if (rng.chance(0.3)) {
                addrs.push_back(core * window
                                + rng.nextBelow(footprint / 16));
            } else {
                cursor = (cursor + stride) % footprint;
                addrs.push_back(core * window + cursor);
            }
            writes[addrs.size() - 1] = rng.chance(store_ratio);
        }

        std::size_t at = 0;
        while (at < addrs.size()) {
            const std::size_t n = std::min<std::size_t>(
                addrs.size() - at, 1 + rng.nextBelow(600));
            batch.accessMixed(addrs.data() + at, writes.get() + at, n);
            // The same references as maximal same-kind accessBatch()
            // runs.
            for (std::size_t i = at, j = at; i < at + n; i = j) {
                while (j < at + n && writes[j] == writes[i])
                    ++j;
                uniform.accessBatch(addrs.data() + i, j - i, writes[i]);
            }
            for (std::size_t i = at; i < at + n; ++i)
                scalar.access(addrs[i], writes[i]);
            at += n;
            ASSERT_TRUE(batch.checkCoherence()) << "batched, at " << at;
            ASSERT_TRUE(batch.checkInclusion()) << "batched, at " << at;
            ASSERT_TRUE(uniform.checkCoherence()) << "same-kind, at " << at;
            ASSERT_TRUE(uniform.checkInclusion()) << "same-kind, at " << at;
            ASSERT_TRUE(scalar.checkCoherence()) << "scalar, at " << at;
            ASSERT_TRUE(scalar.checkInclusion()) << "scalar, at " << at;
        }
        expectSystemsEqual(batch, scalar, "batched vs scalar");
        expectSystemsEqual(uniform, scalar, "same-kind batches vs scalar");
        const MultiCoreStats stats = batch.stats();
        peer_evictions += stats.totalL2EvictionsByOthers();
        holes += batch.aggregateHoles().holesCreated;
    }
    // The draws must reach inter-core L2 evictions and holes.
    EXPECT_GT(peer_evictions, 0u);
    EXPECT_GT(holes, 0u);
}

} // anonymous namespace
} // namespace cac
