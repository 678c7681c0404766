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
 *    on the interleaving order), and the invariants (SWMR, Inclusion)
 *    hold at the end;
 *  - the shared L2 holds only lines the cores ever fetched: probing
 *    the translations of never-accessed pages misses;
 *  - randomized oracles: seeded draws of L1 geometry x registry
 *    organization x L2 x stream at 1 to 4 cores with aliased (shared)
 *    pages keep the SWMR, directory and Inclusion invariants after
 *    every batch, and a twin system fed the same references as mixed
 *    load/store batches (accessMixed()) ends every group of batches
 *    with exactly the per-kind system's counters. Failures name the
 *    seed and the drawn configuration;
 *  - the batch≡scalar oracle: seeded draws of L1 and L2 organization,
 *    core count, store ratio, write allocation, index-plan kind,
 *    stream and aliased pages, replayed once through accessMixed() at
 *    random batch sizes and once through scalar access(), end with
 *    identical per-core L1 rows, L2, holes and coherence counters,
 *    and both keep the invariants at every batch boundary.
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
    EXPECT_EQ(a.externalInvalidates, b.externalInvalidates) << label;
    EXPECT_EQ(a.aliasRemovals, b.aliasRemovals) << label;
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
        // One core has nobody to cohere with.
        ASSERT_TRUE(one.hasMultiCore) << want.org;
        EXPECT_EQ(one.mc.interventions, 0u) << want.org;
        EXPECT_EQ(one.mc.invalidationMessages, 0u) << want.org;
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
 * the mc target one address at a time through accessBatch (runs of 1
 * exercise the demultiplexer's worst case).
 */
TargetStats
replayInterleaved(const std::vector<std::vector<std::uint64_t>> &streams,
                  std::uint64_t seed, SimTarget &target)
{
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
        const TargetStats stats =
            replayInterleaved(streams, seed, *built);

        // Global totals equal the per-core sums equal the issued work.
        ASSERT_TRUE(stats.hasMultiCore);
        std::uint64_t core_accesses = 0;
        for (const McCoreStats &core : stats.mc.cores)
            core_accesses += core.l1.accesses();
        EXPECT_EQ(core_accesses, issued) << seed;
        EXPECT_EQ(stats.l1.accesses(), issued) << seed;
        EXPECT_EQ(stats.l1.stores, 0u) << seed;

        // Disjoint windows: sharing-driven coherence traffic is
        // impossible, only capacity interference remains.
        EXPECT_EQ(stats.mc.interventions, 0u) << seed;
        EXPECT_EQ(stats.mc.invalidationMessages, 0u) << seed;

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

        // Invariants hold at the end of any interleaving.
        EXPECT_TRUE(mc->system().checkCoherence()) << seed;
        EXPECT_TRUE(mc->system().checkInclusion()) << seed;
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
    replayInterleaved(streams, 7, *built);

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

/**
 * A random reference batch: a hot set plus strided sweeps over a
 * footprint a few times the L1 (so L1 and L2 both replace and holes
 * appear), offset by @p base.
 */
std::vector<std::uint64_t>
drawBatch(Rng &rng, std::uint64_t base, std::uint64_t footprint)
{
    std::vector<std::uint64_t> addrs(1 + rng.nextBelow(48));
    const std::uint64_t stride = std::uint64_t{8} << rng.nextBelow(10);
    std::uint64_t cursor = rng.nextBelow(footprint);
    for (std::uint64_t &a : addrs) {
        if (rng.chance(0.3)) {
            a = base + rng.nextBelow(footprint / 16);
        } else {
            cursor = (cursor + stride) % footprint;
            a = base + cursor;
        }
    }
    return addrs;
}

/** Every per-core, bus and L2 counter of @p a equals @p b's. */
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
        EXPECT_EQ(x.interventionsReceived, y.interventionsReceived) << core;
        EXPECT_EQ(x.interventionsSupplied, y.interventionsSupplied) << core;
        EXPECT_EQ(x.invalidationsReceived, y.invalidationsReceived) << core;
        EXPECT_EQ(x.upgrades, y.upgrades) << core;
        EXPECT_EQ(x.l2EvictionsByOthers, y.l2EvictionsByOthers) << core;
        EXPECT_EQ(x.interCoreConflictMisses, y.interCoreConflictMisses)
            << core;
    }
    EXPECT_EQ(sa.interventions, sb.interventions) << label;
    EXPECT_EQ(sa.invalidationMessages, sb.invalidationMessages) << label;
    expectCacheStatsEqual(a.l2().stats(), b.l2().stats(), label + " L2");
    expectHoleStatsEqual(a.aggregateHoles(), b.aggregateHoles(),
                         label + " holes");
}

TEST(McDifferential, RandomSharingKeepsInvariantsAfterEveryBatch)
{
    std::uint64_t interventions = 0, invalidations = 0, upgrades = 0;
    for (unsigned cores : {1u, 2u, 3u, 4u}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            Rng rng(seed * 100 + cores);
            const DrawnConfig cfg = drawConfig(rng);
            SCOPED_TRACE("cores " + std::to_string(cores) + " seed "
                         + std::to_string(seed) + " " + cfg.describe());
            const std::string label = "mc:" + std::to_string(cores) + "x"
                + cfg.l1 + "/" + cfg.l2;
            auto built = OrgRegistry::global().buildTarget(label, cfg.spec);
            auto *mc = dynamic_cast<MultiCoreTarget *>(built.get());
            ASSERT_NE(mc, nullptr);
            CoherentSystem &sys = mc->system();
            // The twin sees the same references as mixed batches:
            // several per-kind draws, from different cores, per call.
            auto twin_built =
                OrgRegistry::global().buildTarget(label, cfg.spec);
            auto *twin_mc =
                dynamic_cast<MultiCoreTarget *>(twin_built.get());
            ASSERT_NE(twin_mc, nullptr);
            CoherentSystem &twin = twin_mc->system();
            std::vector<std::uint64_t> pending;
            std::vector<char> pending_writes;
            const auto flushTwin = [&](unsigned b) {
                std::unique_ptr<bool[]> writes(new bool[pending.size()]);
                for (std::size_t i = 0; i < pending.size(); ++i)
                    writes[i] = pending_writes[i] != 0;
                twin.accessMixed(pending.data(), writes.get(),
                                 pending.size());
                pending.clear();
                pending_writes.clear();
                expectSystemsEqual(sys, twin,
                                   "mixed after batch " + std::to_string(b));
                ASSERT_TRUE(twin.checkCoherence()) << "batch " << b;
                ASSERT_TRUE(twin.checkInclusion()) << "batch " << b;
            };

            // Every core's window aliases its low pages onto core 0's,
            // so the cores share physical blocks and the protocol's
            // interventions, invalidations and upgrades all fire.
            const std::uint64_t window = cfg.spec.mcWindowBytes;
            const std::uint64_t footprint = 6 * cfg.spec.org.sizeBytes;
            const std::uint64_t page = cfg.spec.pageBytes;
            for (unsigned c = 1; c < cores; ++c) {
                for (std::uint64_t off = 0; off < footprint / 2;
                     off += page) {
                    sys.pageMap().aliasTo(c * window + off, off);
                    twin.pageMap().aliasTo(c * window + off, off);
                }
            }
            for (unsigned b = 0; b < 1500; ++b) {
                const unsigned core =
                    static_cast<unsigned>(rng.nextBelow(cores));
                const std::vector<std::uint64_t> batch =
                    drawBatch(rng, core * window, footprint);
                const bool is_write = rng.chance(0.3);
                built->accessBatch(batch.data(), batch.size(), is_write);
                ASSERT_TRUE(sys.checkCoherence()) << "batch " << b;
                ASSERT_TRUE(sys.checkInclusion()) << "batch " << b;
                pending.insert(pending.end(), batch.begin(), batch.end());
                pending_writes.insert(pending_writes.end(), batch.size(),
                                      is_write ? 1 : 0);
                if (b % 4 == 3)
                    flushTwin(b);
            }
            if (!pending.empty())
                flushTwin(1500);
            const MultiCoreStats stats = sys.stats();
            interventions += stats.interventions;
            invalidations += stats.invalidationMessages;
            for (const McCoreStats &core : stats.cores)
                upgrades += core.upgrades;
        }
    }
    // The draws must actually exercise the sharing protocol.
    EXPECT_GT(interventions, 0u);
    EXPECT_GT(invalidations, 0u);
    EXPECT_GT(upgrades, 0u);
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
    std::uint64_t upgrades = 0, interventions = 0, aliases = 0;
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
        auto scalar_built = buildSystem(cfg, cores);
        IndexPlan::forceCallbackForTests(false);
        CoherentSystem &batch =
            dynamic_cast<MultiCoreTarget &>(*batch_built).system();
        CoherentSystem &scalar =
            dynamic_cast<MultiCoreTarget &>(*scalar_built).system();

        // Aliased pages: some of every core's low pages onto core 0's
        // (shared physical blocks), and some within one window
        // (virtual aliases in one L1).
        const std::uint64_t window = cfg.spec.mcWindowBytes;
        const std::uint64_t page = cfg.spec.pageBytes;
        const std::uint64_t footprint = 6 * cfg.spec.org.sizeBytes;
        const std::uint64_t pages = (footprint + page - 1) / page;
        for (unsigned c = 0; c < cores; ++c) {
            for (std::uint64_t p = 0; p < pages; ++p) {
                if (!rng.chance(0.3))
                    continue;
                const std::uint64_t target =
                    c > 0 && rng.chance(0.5)
                    ? rng.nextBelow(pages) * page
                    : c * window + rng.nextBelow(pages) * page;
                batch.pageMap().aliasTo(c * window + p * page, target);
                scalar.pageMap().aliasTo(c * window + p * page, target);
                ++aliases;
            }
        }

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
            for (std::size_t i = at; i < at + n; ++i)
                scalar.access(scalar.coreFor(addrs[i]), addrs[i], writes[i]);
            at += n;
            ASSERT_TRUE(batch.checkCoherence()) << "batched, at " << at;
            ASSERT_TRUE(batch.checkInclusion()) << "batched, at " << at;
            ASSERT_TRUE(scalar.checkCoherence()) << "scalar, at " << at;
            ASSERT_TRUE(scalar.checkInclusion()) << "scalar, at " << at;
        }
        expectSystemsEqual(batch, scalar, "batched vs scalar");
        const MultiCoreStats stats = batch.stats();
        interventions += stats.interventions;
        for (const McCoreStats &row : stats.cores)
            upgrades += row.upgrades;
    }
    // The draws must reach the store-hit and intervention paths.
    EXPECT_GT(upgrades, 0u);
    EXPECT_GT(interventions, 0u);
    EXPECT_GT(aliases, 0u);
}

} // anonymous namespace
} // namespace cac
