/**
 * @file
 * Building the paper's two-level virtual-real hierarchy (section 3)
 * with the public API: a virtually-indexed skewed I-Poly L1 over a
 * physically-indexed conventional L2, with explicit Inclusion and hole
 * accounting. The hierarchy is a one-core CoherentSystem; more L1s
 * would make it a multicore system over one shared L2.
 */

#include <cstdio>

#include "core/cac.hh"

int
main()
{
    using namespace cac;

    // --- 1. Assemble the hierarchy. ----------------------------------
    const CacheGeometry l1_geom(8 * 1024, 32, 2);
    auto l1 = std::make_unique<SetAssocCache>(
        l1_geom,
        makeIndexFn(IndexKind::IPolySkew, l1_geom.setBits(),
                    l1_geom.ways(), /*input_bits=*/14));

    const CacheGeometry l2_geom(256 * 1024, 32, 2);
    auto l2 = std::make_unique<SetAssocCache>(
        l2_geom,
        makeIndexFn(IndexKind::Modulo, l2_geom.setBits(),
                    l2_geom.ways()));

    CoherentSystem hierarchy(std::move(l1), std::move(l2),
                             PageMap(/*page_bytes=*/4096));

    std::printf("L1: %s (virtually indexed)\n",
                hierarchy.l1(0).name().c_str());
    std::printf("L2: %s (physically indexed)\n\n",
                hierarchy.l2().name().c_str());

    // --- 2. Drive it with a workload whose footprint exceeds L2. -----
    Trace trace = buildSpecProxy("gcc", 200000);
    std::uint64_t loads = 0, hits = 0;
    for (const auto &rec : trace) {
        if (rec.op == OpClass::Load) {
            ++loads;
            hits += hierarchy.access(rec.addr, false);
        } else if (rec.op == OpClass::Store) {
            hierarchy.access(rec.addr, true);
        }
    }

    const HoleStats holes = hierarchy.aggregateHoles();
    std::printf("loads %llu, L1 hit ratio %.2f%%\n",
                static_cast<unsigned long long>(loads),
                100.0 * static_cast<double>(hits)
                    / static_cast<double>(loads));
    std::printf("L1 misses %llu, L2 misses %llu\n",
                static_cast<unsigned long long>(holes.l1Misses),
                static_cast<unsigned long long>(holes.l2Misses));
    std::printf("inclusion invalidations %llu -> holes %llu "
                "(%.3f%% of L2 misses), refills %llu\n",
                static_cast<unsigned long long>(
                    holes.inclusionInvalidates),
                static_cast<unsigned long long>(holes.holesCreated),
                100.0 * holes.holesPerL2Miss(),
                static_cast<unsigned long long>(holes.holeRefills));

    // --- 3. Inclusion is an invariant, not an accident. --------------
    std::printf("inclusion check: %s\n",
                hierarchy.checkInclusion() ? "OK" : "VIOLATED");

    // Compare against the closed-form hole model (section 3.3).
    HoleModel model = HoleModel::fromBlockCounts(
        l1_geom.numBlocks(), l2_geom.numBlocks());
    std::printf("\nanalytic P_H for this shape: %.4f "
                "(model assumes DM levels and uncorrelated indices)\n",
                model.holePerL2Miss());
    return 0;
}
