/**
 * @file
 * Functional cache-model interface shared by all organizations
 * (set-associative, skewed, fully associative, victim, two-probe).
 *
 * Models are *functional*: they track placement, hits and misses, not
 * timing. The out-of-order CPU model wraps one of these in a timing
 * shell (latency + MSHRs + bus); the miss-ratio experiments drive them
 * directly.
 */

#ifndef CAC_CACHE_CACHE_MODEL_HH
#define CAC_CACHE_CACHE_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "cache/geometry.hh"

namespace cac
{

/** Aggregate access counters for one cache. */
struct CacheStats
{
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t loadMisses = 0;
    std::uint64_t storeMisses = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;     ///< valid lines displaced by fills
    /**
     * Always 0: every cache is write-through and holds no dirty state.
     * The field stays because the e2ebench stats digest hashes it.
     */
    std::uint64_t writebacks = 0;
    std::uint64_t invalidations = 0; ///< external invalidate() hits
    std::uint64_t firstProbeHits = 0;  ///< two-probe organizations only
    std::uint64_t secondProbeHits = 0; ///< two-probe organizations only

    std::uint64_t accesses() const { return loads + stores; }
    std::uint64_t misses() const { return loadMisses + storeMisses; }
    std::uint64_t hits() const { return accesses() - misses(); }

    /** Overall miss ratio in [0,1]; 0 when no accesses. */
    double missRatio() const
    {
        return accesses()
            ? static_cast<double>(misses())
              / static_cast<double>(accesses())
            : 0.0;
    }

    /** Load miss ratio (the metric Tables 2-3 report). */
    double loadMissRatio() const
    {
        return loads
            ? static_cast<double>(loadMisses) / static_cast<double>(loads)
            : 0.0;
    }
};

/**
 * now - then, counter by counter: the stats a cache accumulated
 * between two snapshots. The scenario engine bills context-switch
 * slices with this, and the sharded replay engine (core/shard_replay)
 * subtracts each shard's warm-up window the same way.
 */
CacheStats cacheStatsDelta(const CacheStats &now, const CacheStats &then);

/** into += delta, counter by counter. */
void cacheStatsAccumulate(CacheStats &into, const CacheStats &delta);

/** Outcome of one access. */
struct AccessResult
{
    bool hit = false;
    bool filled = false; ///< a line was allocated for this access
    /**
     * The departure: the block (byte address of its base) that left
     * the cache entirely during this access, if one did. It may come
     * on a hit as well as on a miss (a two-probe promotion can push a
     * line out), and it is no longer probe()-able afterwards. A line
     * that only moves inside the cache (a victim-buffer swap, a
     * two-probe demotion) is not a departure.
     */
    std::optional<std::uint64_t> evictedAddr;
};

/**
 * Kind sources for batch kernels. Every organization writes one batch
 * kernel templated on where an access's load/store flag comes from,
 * and shares it between accessBatch() (UniformKind: one flag for the
 * whole batch) and accessMixed() (MixedKind: one flag per access).
 * Both answer the same three questions about a batch window.
 */
struct UniformKind
{
    bool write; ///< every access is a store when true

    /** Is access @p i a store? */
    bool isWrite(std::size_t) const { return write; }

    /** Stores among accesses [base, base + n). */
    std::size_t
    writesIn(std::size_t, std::size_t n) const
    {
        return write ? n : 0;
    }

    /** The kinds of the sub-batch starting at access @p base. */
    UniformKind from(std::size_t) const { return *this; }
};

/** Per-access kind source (see UniformKind). */
struct MixedKind
{
    const bool *writes; ///< writes[i]: access i is a store

    bool isWrite(std::size_t i) const { return writes[i]; }

    std::size_t
    writesIn(std::size_t base, std::size_t n) const
    {
        std::size_t stores = 0;
        for (std::size_t i = 0; i < n; ++i)
            stores += writes[base + i] ? 1 : 0;
        return stores;
    }

    MixedKind from(std::size_t base) const { return {writes + base}; }
};

/**
 * Abstract functional cache. Addresses are byte addresses; models mask
 * out the block offset internally.
 */
class CacheModel
{
  public:
    explicit CacheModel(const CacheGeometry &geometry);
    virtual ~CacheModel() = default;

    /**
     * Perform one access, updating contents and statistics.
     *
     * @param addr byte address.
     * @param is_write store when true, load when false.
     */
    virtual AccessResult access(std::uint64_t addr, bool is_write) = 0;

    /**
     * Perform @p n same-kind accesses in order, updating contents and
     * statistics exactly as n access() calls would (the batch path is
     * required to be stats-identical to the scalar path).
     *
     * Organizations override this with a tight non-virtual inner loop,
     * so a driver pays one virtual dispatch per batch instead of one
     * per access. The base implementation falls back to access().
     *
     * @param addrs byte addresses, accessed in array order.
     * @param n number of accesses.
     * @param is_write all stores when true, all loads when false.
     */
    virtual void accessBatch(const std::uint64_t *addrs, std::size_t n,
                             bool is_write);

    /**
     * Perform @p n accesses of mixed kind in order — access i is a
     * store when writes[i] — with the same stats-identity contract as
     * accessBatch(). This is what trace replay feeds: MemRunGatherer
     * collects up to MemRunGatherer::kMaxRun memory operations of any
     * kind per call, so one dispatch covers a long run however often
     * the stream alternates loads and stores.
     *
     * Organizations override it with the same templated kernel that
     * backs their accessBatch(). The base implementation splits the
     * batch into maximal same-kind runs and issues one accessBatch()
     * per run, so a decorator that overrides only accessBatch() stays
     * correct (it just sees the shorter runs).
     *
     * @param addrs byte addresses, accessed in array order.
     * @param writes per-access kind: store when true, load when false.
     * @param n number of accesses.
     */
    virtual void accessMixed(const std::uint64_t *addrs,
                             const bool *writes, std::size_t n);

    /** Hit check without any state or statistics update. */
    virtual bool probe(std::uint64_t addr) const = 0;

    /**
     * Call @p visit with the byte address of every resident block —
     * exactly the blocks probe() finds — in no particular order. For
     * invariant checks (CoherentSystem::checkInclusion()). Every
     * organization overrides it; the base implementation panics, so a
     * decorator that does not forward it cannot pass a check vacuously.
     */
    virtual void
    forEachBlock(const std::function<void(std::uint64_t)> &visit) const;

    /**
     * Invalidate the block containing @p addr if present (Inclusion
     * enforcement).
     *
     * @return true when a valid line was invalidated.
     */
    virtual bool invalidate(std::uint64_t addr) = 0;

    /** Invalidate everything (e.g. after an index-function change). */
    virtual void flush() = 0;

    /** Organization name for reports. */
    virtual std::string name() const = 0;

    const CacheGeometry &geometry() const { return geometry_; }
    const CacheStats &stats() const { return stats_; }

    /** Zero the statistics, keeping contents (post-warmup reset). */
    void resetStats() { stats_ = CacheStats{}; }

  protected:
    CacheGeometry geometry_;
    CacheStats stats_;
};

} // namespace cac

#endif // CAC_CACHE_CACHE_MODEL_HH
