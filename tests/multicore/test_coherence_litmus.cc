/**
 * @file
 * Coherence litmus tests: small hand-written 2–4 core scripts driven
 * through CoherentSystem::access() with *shared* addresses (scenario
 * mixes never share lines — their ASID windows are disjoint — so the
 * protocol corners only show up under direct scripting). Each script
 * asserts the exact M/S/I transitions, the exact intervention and
 * invalidation counts, and re-checks the global invariants (SWMR,
 * directory consistency, Inclusion) after every step.
 *
 * Geometry notes: the page map is given a 64KB page so every script
 * address lives in page 0 and virtual distances survive translation
 * (paddr = page_base + offset). L2 conflicts are then scriptable: with
 * a direct-mapped 4KB L2 (128 sets x 32B), addresses 0x1000 apart
 * collide in L2 regardless of where page 0 landed physically.
 */

#include <gtest/gtest.h>

#include "cache/set_assoc.hh"
#include "index/factory.hh"
#include "multicore/coherent_system.hh"

namespace cac
{
namespace
{

using LineState = CoherentSystem::LineState;

std::unique_ptr<CacheModel>
makeCache(std::uint64_t size, unsigned ways)
{
    const CacheGeometry geom(size, 32, ways);
    return std::make_unique<SetAssocCache>(
        geom,
        makeIndexFn(IndexKind::Modulo, geom.setBits(), ways, 14));
}

/** @p cores identical 1KB/2-way L1s over one @p l2_size L2. */
CoherentSystem
makeSystem(unsigned cores, std::uint64_t l2_size = 64 * 1024,
           unsigned l1_ways = 2, unsigned l2_ways = 2)
{
    std::vector<std::unique_ptr<CacheModel>> l1s;
    for (unsigned c = 0; c < cores; ++c)
        l1s.push_back(makeCache(1024, l1_ways));
    return CoherentSystem(std::move(l1s), makeCache(l2_size, l2_ways),
                          PageMap(64 * 1024), std::uint64_t{1} << 21);
}

/** All invariants that must hold after *every* protocol step. */
void
expectInvariants(const CoherentSystem &sys, const char *where)
{
    EXPECT_TRUE(sys.checkCoherence()) << where;
    EXPECT_TRUE(sys.checkInclusion()) << where;
}

TEST(CoherenceLitmus, StoreInstallsModifiedLoadInstallsShared)
{
    auto sys = makeSystem(2);
    const std::uint64_t A = 0x100, B = 0x200;

    sys.access(0, A, true); // store miss
    EXPECT_EQ(sys.state(0, A), LineState::Modified);
    EXPECT_EQ(sys.state(1, A), LineState::Invalid);
    expectInvariants(sys, "after store A");

    sys.access(0, B, false); // load miss
    EXPECT_EQ(sys.state(0, B), LineState::Shared);
    expectInvariants(sys, "after load B");

    const MultiCoreStats mc = sys.stats();
    EXPECT_EQ(mc.interventions, 0u);
    EXPECT_EQ(mc.invalidationMessages, 0u);
    EXPECT_EQ(mc.cores[0].upgrades, 0u); // installed M, never promoted
}

TEST(CoherenceLitmus, ReadInterventionDowngradesOwnerAndSkipsL2)
{
    auto sys = makeSystem(2);
    const std::uint64_t A = 0x100;

    sys.access(0, A, true); // core 0 owns A Modified
    const std::uint64_t l2_before = sys.l2().stats().accesses();

    sys.access(1, A, false); // core 1 read miss on the M line
    // Served L1-to-L1: the shared L2 saw no access at all.
    EXPECT_EQ(sys.l2().stats().accesses(), l2_before);
    // M -> S: the old owner keeps a Shared copy, the reader gets one.
    EXPECT_EQ(sys.state(0, A), LineState::Shared);
    EXPECT_EQ(sys.state(1, A), LineState::Shared);
    expectInvariants(sys, "after read intervention");

    const MultiCoreStats mc = sys.stats();
    EXPECT_EQ(mc.interventions, 1u);
    EXPECT_EQ(mc.cores[1].interventionsReceived, 1u);
    EXPECT_EQ(mc.cores[0].interventionsSupplied, 1u);
    EXPECT_EQ(mc.invalidationMessages, 0u); // a read invalidates nobody
}

TEST(CoherenceLitmus, DowngradedOwnerUpgradesOnItsNextStoreHit)
{
    // The Modified state a core keeps in its reverse map must leave
    // with a read intervention: a stale one would let the old owner's
    // next store hit skip the upgrade and leave the reader's copy
    // alive beside a written line. Run through access() and through
    // the batch kernel's store-hit path.
    for (const bool batched : {false, true}) {
        SCOPED_TRACE(batched ? "accessMixed" : "access");
        auto sys = makeSystem(2);
        const std::uint64_t A = 0x100;
        const auto ref = [&](unsigned core, bool is_write) {
            const std::uint64_t vaddr = A + core * sys.windowBytes();
            if (!batched) {
                sys.access(core, vaddr, is_write);
                return;
            }
            const bool writes[1] = {is_write};
            sys.accessMixed(&vaddr, writes, 1);
        };
        // Core 1's window aliases onto core 0's page, so both cores
        // reference the same physical block.
        sys.pageMap().aliasTo(sys.windowBytes(), 0);

        ref(0, true);  // core 0: M
        ref(1, false); // read intervention: core 0 M -> S
        ASSERT_EQ(sys.stats().interventions, 1u);
        EXPECT_EQ(sys.state(0, A), LineState::Shared);
        expectInvariants(sys, "after the downgrade");

        ref(0, true); // store hit on a Shared line: an upgrade
        const MultiCoreStats mc = sys.stats();
        EXPECT_EQ(mc.cores[0].upgrades, 1u);
        EXPECT_EQ(mc.cores[1].invalidationsReceived, 1u);
        EXPECT_EQ(sys.state(0, A), LineState::Modified);
        EXPECT_EQ(sys.state(1, A + sys.windowBytes()), LineState::Invalid);
        expectInvariants(sys, "after the upgrade");
    }
}

TEST(CoherenceLitmus, WriteInterventionInvalidatesOwner)
{
    auto sys = makeSystem(2);
    const std::uint64_t A = 0x100;

    sys.access(0, A, true); // core 0 owns A Modified
    const std::uint64_t l2_before = sys.l2().stats().accesses();

    sys.access(1, A, true); // core 1 write miss on the M line
    EXPECT_EQ(sys.l2().stats().accesses(), l2_before);
    // Ownership migrates; the old owner's copy is shot down.
    EXPECT_EQ(sys.state(0, A), LineState::Invalid);
    EXPECT_EQ(sys.state(1, A), LineState::Modified);
    expectInvariants(sys, "after write intervention");

    const MultiCoreStats mc = sys.stats();
    EXPECT_EQ(mc.interventions, 1u);
    EXPECT_EQ(mc.cores[1].interventionsReceived, 1u);
    EXPECT_EQ(mc.cores[0].interventionsSupplied, 1u);
    EXPECT_EQ(mc.cores[0].invalidationsReceived, 1u);
    EXPECT_EQ(mc.invalidationMessages, 1u);
}

TEST(CoherenceLitmus, WriteHitUpgradeInvalidatesEverySharer)
{
    auto sys = makeSystem(4);
    const std::uint64_t A = 0x100;

    // Three cores read A: all Shared, no coherence traffic.
    for (unsigned c = 0; c < 3; ++c) {
        sys.access(c, A, false);
        EXPECT_EQ(sys.state(c, A), LineState::Shared) << c;
    }
    expectInvariants(sys, "after shared loads");
    ASSERT_EQ(sys.stats().invalidationMessages, 0u);

    // Core 0 writes its Shared copy: S -> M, both other copies die.
    sys.access(0, A, true);
    EXPECT_EQ(sys.state(0, A), LineState::Modified);
    EXPECT_EQ(sys.state(1, A), LineState::Invalid);
    EXPECT_EQ(sys.state(2, A), LineState::Invalid);
    EXPECT_EQ(sys.state(3, A), LineState::Invalid);
    expectInvariants(sys, "after upgrade");

    const MultiCoreStats mc = sys.stats();
    EXPECT_EQ(mc.cores[0].upgrades, 1u);
    EXPECT_EQ(mc.cores[1].invalidationsReceived, 1u);
    EXPECT_EQ(mc.cores[2].invalidationsReceived, 1u);
    EXPECT_EQ(mc.cores[3].invalidationsReceived, 0u); // never had a copy
    EXPECT_EQ(mc.invalidationMessages, 2u);
    EXPECT_EQ(mc.interventions, 0u); // hits intervene with nobody

    // Writing again while already Modified is free: no second upgrade.
    sys.access(0, A, true);
    EXPECT_EQ(sys.stats().cores[0].upgrades, 1u);
    EXPECT_EQ(sys.stats().invalidationMessages, 2u);
}

TEST(CoherenceLitmus, WriteMissInvalidatesSharers)
{
    auto sys = makeSystem(2);
    const std::uint64_t A = 0x100;

    sys.access(0, A, false); // core 0 holds A Shared
    sys.access(1, A, true);  // core 1 write *miss* (no owner exists)
    EXPECT_EQ(sys.state(0, A), LineState::Invalid);
    EXPECT_EQ(sys.state(1, A), LineState::Modified);
    expectInvariants(sys, "after write miss");

    const MultiCoreStats mc = sys.stats();
    EXPECT_EQ(mc.interventions, 0u); // nobody held it Modified
    EXPECT_EQ(mc.cores[0].invalidationsReceived, 1u);
    EXPECT_EQ(mc.invalidationMessages, 1u);
}

TEST(CoherenceLitmus, L1EvictionDropsOwnershipSilently)
{
    auto sys = makeSystem(2);
    // 1KB / 32B / 2 ways = 16 sets, so addresses 512 bytes apart share
    // an L1 set; three of them overflow the two ways and evict A.
    const std::uint64_t A = 0x0;

    sys.access(0, A, true); // Modified in core 0
    sys.access(0, A + 512, false);
    sys.access(0, A + 1024, false); // LRU evicts A
    EXPECT_EQ(sys.state(0, A), LineState::Invalid);
    expectInvariants(sys, "after evicting the owned line");

    // A peer miss on A now goes to the L2 — no stale intervention.
    const std::uint64_t l2_before = sys.l2().stats().accesses();
    sys.access(1, A, false);
    EXPECT_EQ(sys.stats().interventions, 0u);
    EXPECT_EQ(sys.l2().stats().accesses(), l2_before + 1);
    EXPECT_EQ(sys.state(1, A), LineState::Shared);
    expectInvariants(sys, "after peer load");
}

TEST(CoherenceLitmus, SharedL2EvictionAttributesInterCoreConflicts)
{
    // Direct-mapped 4KB L2: 0x1000-distant addresses collide in L2 but
    // coexist in the 4-way L1s (same L1 set, enough ways).
    std::vector<std::unique_ptr<CacheModel>> l1s;
    for (unsigned c = 0; c < 2; ++c)
        l1s.push_back(makeCache(1024, 4));
    CoherentSystem sys(std::move(l1s), makeCache(4096, 1),
                       PageMap(64 * 1024), std::uint64_t{1} << 21);
    const std::uint64_t A = 0x0, B = 0x1000;

    sys.access(0, A, false); // core 0 fills A into the L2
    expectInvariants(sys, "after A");

    // Core 1's fill of B evicts A from the L2; Inclusion then rips A
    // out of core 0's L1, leaving a hole, and the eviction is charged
    // to the line's filler as "lost to a peer".
    sys.access(1, B, false);
    EXPECT_EQ(sys.state(0, A), LineState::Invalid);
    expectInvariants(sys, "after B evicts A");
    {
        const MultiCoreStats mc = sys.stats();
        EXPECT_EQ(mc.cores[0].l2EvictionsByOthers, 1u);
        EXPECT_EQ(mc.cores[0].holes.inclusionInvalidates, 1u);
        EXPECT_EQ(mc.cores[0].holes.holesCreated, 1u);
        EXPECT_EQ(mc.cores[0].interCoreConflictMisses, 0u); // not yet
    }

    // Core 0 re-misses on the line core 1 pushed out: that is an
    // inter-core conflict miss (and a hole refill in the L1).
    sys.access(0, A, false);
    expectInvariants(sys, "after A returns");
    {
        const MultiCoreStats mc = sys.stats();
        EXPECT_EQ(mc.cores[0].interCoreConflictMisses, 1u);
        EXPECT_EQ(mc.cores[0].holes.holeRefills, 1u);
        // ...and A's fill evicted B right back: charged to core 1.
        EXPECT_EQ(mc.cores[1].l2EvictionsByOthers, 1u);
    }

    // A core re-evicting *its own* line is not an inter-core conflict:
    // core 0 brings B in (evicts its own A), then re-misses on A.
    sys.access(0, B, false);
    sys.access(0, A, false);
    EXPECT_EQ(sys.stats().cores[0].interCoreConflictMisses, 1u);
    expectInvariants(sys, "after self-conflict");
}

TEST(CoherenceLitmus, FlushL1sDropsOwnershipAndCopies)
{
    auto sys = makeSystem(2);
    const std::uint64_t A = 0x100, B = 0x200;
    sys.access(0, A, true);
    sys.access(1, B, false);
    sys.flushL1s();
    EXPECT_EQ(sys.state(0, A), LineState::Invalid);
    EXPECT_EQ(sys.state(1, B), LineState::Invalid);
    expectInvariants(sys, "after flush");

    // Post-flush misses go to the (still warm) L2, intervention-free.
    const std::uint64_t l2_hits_before = sys.l2().stats().hits();
    sys.access(1, A, false);
    EXPECT_EQ(sys.stats().interventions, 0u);
    EXPECT_EQ(sys.l2().stats().hits(), l2_hits_before + 1);
}

TEST(CoherenceLitmus, FlushL1sKeepsL2FillAttribution)
{
    // The SharedL2EvictionAttributesInterCoreConflicts geometry: A and
    // B collide in the direct-mapped L2 but not in the L1s.
    std::vector<std::unique_ptr<CacheModel>> l1s;
    for (unsigned c = 0; c < 2; ++c)
        l1s.push_back(makeCache(1024, 4));
    CoherentSystem sys(std::move(l1s), makeCache(4096, 1),
                       PageMap(64 * 1024), std::uint64_t{1} << 21);
    const std::uint64_t A = 0x0, B = 0x1000;

    sys.access(0, A, false); // core 0 fills A into the L2
    expectInvariants(sys, "after A");
    sys.access(1, B, false); // core 1's fill evicts it
    expectInvariants(sys, "after B evicts A");
    EXPECT_EQ(sys.stats().cores[0].l2EvictionsByOthers, 1u);

    // The flush empties the L1s and the directory; the L2 and who
    // filled and evicted its lines survive it.
    sys.flushL1s();
    EXPECT_EQ(sys.state(0, A), LineState::Invalid);
    EXPECT_EQ(sys.state(1, B), LineState::Invalid);
    expectInvariants(sys, "after flush");

    sys.access(0, A, false);
    expectInvariants(sys, "after A returns");
    const MultiCoreStats mc = sys.stats();
    EXPECT_EQ(mc.cores[0].interCoreConflictMisses, 1u);
    EXPECT_EQ(mc.cores[0].l2EvictionsByOthers, 1u);
    // A's refill evicted B, which core 1 filled before the flush.
    EXPECT_EQ(mc.cores[1].l2EvictionsByOthers, 1u);
}

TEST(CoherenceLitmus, ExternalInvalidateReachesEveryCore)
{
    auto sys = makeSystem(2);
    const std::uint64_t A = 0x100;
    sys.access(0, A, false);
    expectInvariants(sys, "after core 0 loads A");
    sys.access(1, A, false);
    EXPECT_EQ(sys.state(0, A), LineState::Shared);
    EXPECT_EQ(sys.state(1, A), LineState::Shared);
    expectInvariants(sys, "after core 1 loads A");

    sys.externalInvalidate(sys.pageMap().translate(A));
    EXPECT_EQ(sys.state(0, A), LineState::Invalid);
    EXPECT_EQ(sys.state(1, A), LineState::Invalid);
    EXPECT_EQ(sys.aggregateHoles().externalInvalidates, 1u);
    expectInvariants(sys, "after the external invalidation");

    // The line left the L2 without a core's fill evicting it: the next
    // miss goes to memory and charges no inter-core conflict.
    const std::uint64_t l2_misses_before = sys.l2().stats().misses();
    sys.access(1, A, false);
    expectInvariants(sys, "after A returns");
    EXPECT_EQ(sys.l2().stats().misses(), l2_misses_before + 1);
    const MultiCoreStats mc = sys.stats();
    EXPECT_EQ(mc.totalInterCoreConflictMisses(), 0u);
    EXPECT_EQ(mc.totalL2EvictionsByOthers(), 0u);
}

TEST(CoherenceLitmus, SwmrHoldsUnderRandomizedSharedStress)
{
    // 4 cores hammer 24 shared lines with a deterministic LCG mix of
    // loads and stores; every step re-checks SWMR + Inclusion. A small
    // L2 (4KB) keeps Inclusion evictions and interventions both hot.
    auto sys = makeSystem(4, 4096, 2, 1);
    std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
    std::uint64_t issued_loads = 0, issued_stores = 0;
    for (int step = 0; step < 4000; ++step) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const unsigned core = (lcg >> 33) % 4;
        const std::uint64_t addr = ((lcg >> 40) % 24) * 32;
        const bool is_write = ((lcg >> 62) & 1) != 0;
        sys.access(core, addr, is_write);
        is_write ? ++issued_stores : ++issued_loads;
        ASSERT_TRUE(sys.checkCoherence()) << "step " << step;
        ASSERT_TRUE(sys.checkInclusion()) << "step " << step;
        // SWMR directly: at most one core holds any line Modified.
        unsigned owners = 0;
        for (unsigned c = 0; c < 4; ++c)
            owners += sys.state(c, addr) == LineState::Modified;
        ASSERT_LE(owners, 1u) << "step " << step;
    }
    // Per-core rows partition the issued stream exactly.
    const CacheStats total = sys.aggregateL1();
    EXPECT_EQ(total.loads, issued_loads);
    EXPECT_EQ(total.stores, issued_stores);
    // The stress mix must actually have exercised the protocol.
    const MultiCoreStats mc = sys.stats();
    EXPECT_GT(mc.interventions, 0u);
    EXPECT_GT(mc.invalidationMessages, 0u);
    std::uint64_t upgrades = 0;
    for (const McCoreStats &core : mc.cores)
        upgrades += core.upgrades;
    EXPECT_GT(upgrades, 0u);
}

} // anonymous namespace
} // namespace cac
