/**
 * @file
 * The virtual-real cache hierarchy: per-core private virtually indexed
 * L1s (any registry organization, so skewed/I-Poly L1s work
 * unchanged) over one shared physically indexed L2, with Inclusion
 * enforced across every L1 and each L2 fill attributed to its core.
 *
 * With one core this is the paper's two-level hierarchy (sections
 * 3.1-3.3, after Wang, Baer & Levy [25]): L1 is virtually indexed
 * (exposing address bits beyond the page offset to the I-Poly hash
 * without translation delay), L2 is physically indexed, and Inclusion
 * is enforced explicitly. When an L2 fill replaces a valid line, the
 * corresponding virtual line is invalidated at L1, possibly creating a
 * *hole*. The L1s carry no write traffic: like the paper's L1 they are
 * write-through and hold no dirty state, so a line that leaves an L1
 * needs no bookkeeping at all. HoleStats counts L2 misses, forced
 * invalidations and holes (an L2 victim the L1 fill itself displaced
 * is no longer resident and leaves none), which the holes_model bench
 * compares against the analytic P_H. The `2lvl:` target grammar builds
 * exactly this one-core system.
 *
 * No two L1s ever hold the same data, by construction: access() routes
 * every reference by its virtual address (coreFor()), a multi-core
 * window is a whole number of blocks, and PageMap never hands out a
 * frame twice. So a physical block has one virtual block, and that
 * block one owner core, the only core that ever misses on it. The page
 * map is therefore the reverse map: an L2 victim's L1 copy, if any, is
 * at PageMap::untranslate() of the victim in its owner's L1, and
 * Inclusion is one invalidate() there. No sharing protocol exists: no
 * line states, no directory, no invalidation of peers
 * (checkCoherence() requires the routing and the inverse). What more
 * cores add is pressure on the shared L2:
 *
 *  - Inclusion across cores: one core's L2 fill can evict another
 *    core's line, and so leave a hole in that core's L1.
 *  - Inter-core conflict attribution: every L2 line was filled by its
 *    owner, so when a fill evicts a line of another core, that owner
 *    is charged an L2 eviction by others, and its next miss on the
 *    block is an inter-core conflict miss. This is the multicore
 *    analogue of the paper's conflict-miss question: does
 *    skewed/polynomial placement keep its edge when the interleaving
 *    pressure comes from other cores?
 *
 * The one table the miss path keeps beyond the holes is the set of
 * blocks a non-owner's fill evicted from the L2 and their owner has not
 * missed on since (an L2 miss erases its block). It stays empty with
 * one core. A block in it is not in the L2, so it is bounded by the
 * blocks of the mapped pages, not by the L2: blocks nobody misses on
 * again stay. The holes sets and this set are presized at construction
 * with BlockTable::reserve() from the geometry they mirror (an L1's
 * lines, the L2's lines), at 1/8 load, so most probes end in their home
 * slot; both can outgrow the reservation and then double as any table
 * does.
 *
 * Speed. Each core's L1 hits stay inside SetAssocCache::batchKernel(),
 * the same plain-LRU hit loop batch replay of a single cache runs;
 * the kernel hands every miss (after its fill) to a handler that runs
 * the miss path, and store hits never leave it. A miss translates
 * through PageMap's memo of recent translations, and reaches a
 * set-associative L2 through its precomputed packed index word
 * (SetAssocCache::accessPacked()) rather than the virtual access()
 * chain. None of this changes a counter.
 *
 * Streams demultiplex onto cores by ASID window: core = (vaddr /
 * windowBytes) % cores, and windowBytes must equal the replayed mix's
 * asidStrideBytes (under a 2 MiB window, "asid=4m" steps each program
 * two windows on and piles a two-core mix onto one core). Program k
 * of a mix is relocated by k windows, so it runs on core (w + k) %
 * cores, where w is the window its own data starts in. The Spec95
 * proxies start at 4 MiB, window 2 of the default 2 MiB stride, so a
 * 4-program mix lands on cores 2, 3, 0 and 1; a footprint that
 * crosses a window boundary spills onto the next core. The
 * interleaving order is whatever the (deterministic, quantum
 * round-robin) Scenario composition produced, so results are
 * bit-stable at any host thread count.
 */

#ifndef CAC_MULTICORE_COHERENT_SYSTEM_HH
#define CAC_MULTICORE_COHERENT_SYSTEM_HH

#include <memory>
#include <vector>

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
    /** Never written; e2ebench reads it. */
    std::uint64_t externalInvalidates = 0;
    /** Never written; e2ebench reads it. */
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
 * Per-core statistics row: the core's private-L1 functional stats, its
 * Inclusion/hole bookkeeping, and the L2 pressure it gave and took.
 */
struct McCoreStats
{
    CacheStats l1; ///< private L1 functional stats (filled at harvest)
    HoleStats holes; ///< per-core Inclusion invalidations and holes

    /** Never written; e2ebench reads it. */
    std::uint64_t interventionsReceived = 0;
    /** Never written; e2ebench reads it. */
    std::uint64_t interventionsSupplied = 0;
    /** Never written; e2ebench reads it. */
    std::uint64_t invalidationsReceived = 0;
    /** Never written; e2ebench reads it. */
    std::uint64_t upgrades = 0;
    /** This core's L2 lines evicted by other cores' fills. */
    std::uint64_t l2EvictionsByOthers = 0;
    /**
     * L2 misses on lines a *different* core previously evicted — the
     * inter-core conflict-miss attribution the sweep reports per core.
     */
    std::uint64_t interCoreConflictMisses = 0;
};

/** now - then, counter by counter (sharded-replay reconciliation). */
McCoreStats mcCoreStatsDelta(const McCoreStats &now,
                             const McCoreStats &then);

/** Whole-system multicore statistics: one row per core. */
struct MultiCoreStats
{
    std::vector<McCoreStats> cores;

    /** Never written; e2ebench reads it. */
    std::uint64_t interventions = 0;
    /** Never written; e2ebench reads it. */
    std::uint64_t invalidationMessages = 0;

    /** Sum of per-core inter-core conflict misses. */
    std::uint64_t totalInterCoreConflictMisses() const;

    /** Sum of per-core L2 evictions caused by other cores. */
    std::uint64_t totalL2EvictionsByOthers() const;
};

/** now - then over every core row. */
MultiCoreStats multiCoreStatsDelta(const MultiCoreStats &now,
                                   const MultiCoreStats &then);

/**
 * The N-core two-level system. Construct with one L1 per core
 * (identical geometry) and the shared L2, or with a single L1 for the
 * plain two-level hierarchy; drive it with access()/accessBatch();
 * read per-core and aggregate stats back.
 */
class CoherentSystem
{
  public:
    /** Most cores one system can hold. */
    static constexpr unsigned kMaxCores = 64;

    /**
     * @param l1s one private cache per core; identical geometries.
     * @param l2 the shared cache; accessed with physical addresses.
     * @param page_map translation model (shared by all cores).
     * @param window_bytes ASID-window stride demultiplexing streams
     *        onto cores; match ScenarioConfig::asidStrideBytes. With
     *        several cores it must be a whole number of blocks, so
     *        that no block routes to two cores.
     */
    CoherentSystem(std::vector<std::unique_ptr<CacheModel>> l1s,
                   std::unique_ptr<CacheModel> l2, PageMap page_map,
                   std::uint64_t window_bytes);

    /**
     * One core: the plain two-level virtual-real hierarchy.
     *
     * @param l1 first-level cache; accessed with *virtual* addresses.
     * @param l2 second-level cache; accessed with *physical* addresses.
     * @param page_map translation model.
     */
    CoherentSystem(std::unique_ptr<CacheModel> l1,
                   std::unique_ptr<CacheModel> l2, PageMap page_map);

    unsigned numCores() const
    {
        return static_cast<unsigned>(l1s_.size());
    }

    std::uint64_t windowBytes() const { return window_bytes_; }

    /** Which core a virtual address' ASID window routes to. */
    unsigned coreFor(std::uint64_t vaddr) const
    {
        return static_cast<unsigned>((vaddr / window_bytes_)
                                     % l1s_.size());
    }

    /**
     * One reference, on the core coreFor(@p vaddr) routes it to.
     *
     * @return true when that core's private L1 hit.
     */
    bool access(std::uint64_t vaddr, bool is_write);

    /**
     * @p n same-kind references in stream order, demultiplexed onto
     * cores by ASID window. Identical in outcome to n access() calls.
     * When an L1 is a SetAssocCache with a batch-capable plan, its
     * index words for a whole tile are precomputed in one SIMD pass and
     * only misses fall into the slow bookkeeping path.
     */
    void accessBatch(const std::uint64_t *vaddrs, std::size_t n,
                     bool is_write);

    /**
     * @p n references of mixed kind (writes[i]: reference i is a
     * store), otherwise exactly accessBatch(): the same demultiplexer
     * and per-core kernel, identical in outcome to n access() calls.
     * Trace replay feeds the system through this (MemRunGatherer).
     */
    void accessMixed(const std::uint64_t *vaddrs, const bool *writes,
                     std::size_t n);

    const CacheModel &l1(unsigned core) const { return *l1s_[core]; }
    const CacheModel &l2() const { return *l2_; }
    PageMap &pageMap() { return page_map_; }

    /** Full multicore stats with per-core L1 rows filled in. */
    MultiCoreStats stats() const;

    /** All cores' L1 stats summed into one row (sweep aggregate). */
    CacheStats aggregateL1() const;

    /** All cores' hole bookkeeping summed into one row. */
    HoleStats aggregateHoles() const;

    /**
     * Verify what replaces a sharing protocol, for every block resident
     * in every private L1 (CacheModel::forEachBlock()): coreFor() routes
     * it to the core whose L1 holds it, and its page is mapped with
     * untranslate(translate(v)) == v, so no other virtual block, and so
     * no other L1, can hold its physical block. O(L1 lines); test hook.
     */
    bool checkCoherence() const;

    /**
     * Verify Inclusion at every core: every block resident in a private
     * L1 has its physical block resident in the shared L2.
     */
    bool checkInclusion() const;

    /**
     * Flush every private L1 (and the pending holes of their contents)
     * — the context-switch cold start of a virtual cache without ASIDs.
     * The physically indexed shared L2 and its inter-core attribution
     * survive; Inclusion trivially holds on empty L1s.
     */
    void flushL1s();

  private:
    /** The batchKernel() handler of one core's L1 (coherent_system.cc). */
    struct CoreEvents;

    /** access() on @p core, which coreFor() routed the reference to. */
    bool accessOn(unsigned core, std::uint64_t vaddr, bool is_write);

    /** Everything access() does after a private-L1 miss. */
    void missPath(unsigned core, std::uint64_t vaddr, bool is_write);

    /**
     * One shared-L2 access to physical block @p pblock: through its
     * packed index word when the L2 is a packed-capable SetAssocCache.
     */
    AccessResult l2Access(std::uint64_t pblock, bool is_write);

    /** Make @p vaddr's ASID window the demultiplexer's current one. */
    void enterWindow(std::uint64_t vaddr);

    /**
     * The one batch kernel behind accessBatch() and accessMixed():
     * demultiplex into same-core runs and feed each to coreBatch().
     * Templated on the kind source (UniformKind / MixedKind).
     */
    template <typename Kind>
    void batchKernel(const std::uint64_t *vaddrs, std::size_t n,
                     Kind kind);

    /**
     * Per-core batch: a SetAssocCache L1 runs its own batch kernel and
     * reports misses through CoreEvents; any other L1 replays through
     * accessOn().
     */
    template <typename Kind>
    void coreBatch(unsigned core, const std::uint64_t *vaddrs,
                   std::size_t n, Kind kind);

    std::vector<std::unique_ptr<CacheModel>> l1s_;
    /** l1s_[i] downcast when it is a SetAssocCache (batch fast path). */
    std::vector<SetAssocCache *> l1_sa_;
    std::unique_ptr<CacheModel> l2_;
    /** l2_ downcast when it is a SetAssocCache (packed L2 lookups). */
    SetAssocCache *l2_sa_ = nullptr;
    PageMap page_map_;
    std::uint64_t window_bytes_;
    /** Demultiplexer state: the current window's base and its core. */
    std::uint64_t window_lo_ = 0;
    unsigned window_core_ = 0;

    /** Per-core hole and attribution counters (l1 filled lazily). */
    MultiCoreStats mc_;

    /** Per-core blocks invalidated by Inclusion, pending re-reference. */
    std::vector<BlockSet> holes_;
    /**
     * Physical blocks a non-owner core's fill evicted from the L2, not
     * missed on since (see the file comment). Empty with one core.
     */
    BlockSet peer_evicted_;
};

} // namespace cac

#endif // CAC_MULTICORE_COHERENT_SYSTEM_HH
