/**
 * @file
 * Two-level virtual-real cache hierarchy (Wang, Baer & Levy [25], as
 * adopted by the paper's sections 3.1-3.3).
 *
 * L1 is virtually indexed (exposing address bits beyond the page offset
 * to the I-Poly hash without translation delay); L2 is physically
 * indexed. Inclusion is enforced explicitly: when an L2 fill replaces a
 * valid line, the corresponding virtual line is invalidated at L1 —
 * possibly creating a *hole*. The hierarchy counts L2 misses, forced
 * invalidations, coincidences (invalidation target == incoming fill
 * slot) and holes, which the holes_model bench compares against the
 * analytic P_H.
 */

#ifndef CAC_HIERARCHY_TWO_LEVEL_HH
#define CAC_HIERARCHY_TWO_LEVEL_HH

#include <memory>

#include "cache/cache_model.hh"
#include "common/block_table.hh"
#include "hierarchy/page_map.hh"

namespace cac
{

class SetAssocCache;

/** Hole bookkeeping for the section 3.3 experiment. */
struct HoleStats
{
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t l2Replacements = 0;    ///< L2 fills that evicted data
    std::uint64_t inclusionInvalidates = 0; ///< victim found in L1 (P_r)
    std::uint64_t holesCreated = 0;      ///< invalidation left a hole
    std::uint64_t holeRefills = 0;       ///< L1 misses on holed blocks
    std::uint64_t externalInvalidates = 0;
    /**
     * Virtual-alias removals: a fill found another virtual block for
     * the same physical block resident at L1, and shot it down (the
     * "at most one alias in L1 at any instant" rule, section 3.3
     * cause 2).
     */
    std::uint64_t aliasRemovals = 0;

    /** Measured fraction of L2 misses creating a hole (vs model P_H). */
    double holesPerL2Miss() const
    {
        return l2Misses
            ? static_cast<double>(holesCreated)
              / static_cast<double>(l2Misses)
            : 0.0;
    }

    /** Measured P_r: L2 victims found resident in L1. */
    double replacedInL1PerL2Replacement() const
    {
        return l2Replacements
            ? static_cast<double>(inclusionInvalidates)
              / static_cast<double>(l2Replacements)
            : 0.0;
    }
};

/** now - then, counter by counter (sharded-replay reconciliation). */
HoleStats holeStatsDelta(const HoleStats &now, const HoleStats &then);

/** into += delta, counter by counter. */
void holeStatsAccumulate(HoleStats &into, const HoleStats &delta);

/**
 * Virtually-indexed L1 over physically-indexed L2 with explicit
 * Inclusion.
 */
class TwoLevelHierarchy
{
  public:
    /**
     * @param l1 first-level cache; accessed with *virtual* addresses.
     * @param l2 second-level cache; accessed with *physical* addresses.
     * @param page_map translation model.
     */
    TwoLevelHierarchy(std::unique_ptr<CacheModel> l1,
                      std::unique_ptr<CacheModel> l2,
                      PageMap page_map);

    /**
     * One reference from the processor.
     *
     * @param vaddr virtual byte address.
     * @param is_write store when true.
     * @return true when L1 hit.
     */
    bool access(std::uint64_t vaddr, bool is_write);

    /**
     * @p n same-kind references in order, identical in outcome to n
     * access() calls. When L1 is a SetAssocCache with a batch-capable
     * plan, the L1 index words for a whole tile are precomputed in one
     * SIMD pass and only misses fall into the slow bookkeeping path.
     */
    void accessBatch(const std::uint64_t *vaddrs, std::size_t n,
                     bool is_write);

    /**
     * External coherence invalidation, physically addressed (snooped at
     * L2 per the Inclusion argument of section 3.2, forwarded to L1 via
     * the reverse map when present).
     */
    void externalInvalidate(std::uint64_t paddr);

    const CacheModel &l1() const { return *l1_; }
    const CacheModel &l2() const { return *l2_; }
    const HoleStats &holeStats() const { return hole_stats_; }
    PageMap &pageMap() { return page_map_; }

    /**
     * Flush the virtually-indexed L1 (and the reverse map and pending
     * holes that describe its contents) — the context-switch cold
     * start of a virtual cache without ASIDs. L2 is physically indexed
     * and survives; Inclusion trivially holds on an empty L1.
     */
    void flushL1();

    /**
     * Verify Inclusion: every virtual block resident in L1 has its
     * physical block resident in L2. O(tracked blocks); test hook.
     */
    bool checkInclusion() const;

  private:
    /** Everything access() does after an L1 miss. */
    void missPath(std::uint64_t vaddr, bool is_write,
                  const AccessResult &l1_result);

    std::unique_ptr<CacheModel> l1_;
    std::unique_ptr<CacheModel> l2_;
    /** l1_ downcast when it is a SetAssocCache (batch fast path). */
    SetAssocCache *l1_sa_ = nullptr;
    PageMap page_map_;
    HoleStats hole_stats_;
    /**
     * Reverse map: physical block -> virtual block currently cached at
     * L1. The virtual-real protocol maintains exactly this association
     * so physical invalidations can find virtual L1 lines without
     * reverse translation hardware.
     */
    BlockTable<std::uint64_t> l1_contents_;
    /** Virtual blocks invalidated by Inclusion, pending re-reference. */
    BlockSet holes_;
};

} // namespace cac

#endif // CAC_HIERARCHY_TWO_LEVEL_HH
