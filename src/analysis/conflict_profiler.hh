/**
 * @file
 * ConflictProfiler: measured conflict behavior of any simulation
 * target.
 *
 * Where the ConflictAnalyzer *predicts* conflicts from GF(2) algebra,
 * this observer *measures* them. It is a SimTarget decorator: wrap any
 * target (functional cache, hierarchy, CPU stack) and drive it through
 * the normal accessBatch()/replay() interfaces — streamed or in-memory,
 * chunking invisible — and it records, on the side:
 *
 *  - per-set occupancy histograms, one per way, using a compiled
 *    IndexPlan of the placement function under study (so the histogram
 *    is exact, not sampled);
 *  - conflict-miss attribution: a fully-associative LRU shadow model of
 *    the same capacity replays the identical reference stream; misses
 *    the target takes beyond the shadow's are conflict misses (the
 *    classical three-C decomposition the paper's Figure 1 argument
 *    rests on);
 *  - the top conflicting address pairs: consecutive distinct blocks
 *    that collide in *every* way (pairs way 0 alone maps together but
 *    another way separates can coexist, so they are not counted),
 *    tracked in a bounded map — the pairs a pathological stride
 *    thrashes between.
 *
 * tests/analysis/test_conflict_profiler.cc cross-checks the measured
 * per-set occupancy against the analyzer's per-stride predictions.
 */

#ifndef CAC_ANALYSIS_CONFLICT_PROFILER_HH
#define CAC_ANALYSIS_CONFLICT_PROFILER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/fully_assoc.hh"
#include "cache/geometry.hh"
#include "core/experiment.hh"
#include "core/sim_target.hh"
#include "index/index_fn.hh"
#include "index/index_plan.hh"

namespace cac
{

/** Occupancy histogram of one way. */
struct WaySetProfile
{
    /** accesses[s]: number of accesses this way mapped to set s. */
    std::vector<std::uint64_t> accesses;

    /** Number of sets with at least one access. */
    std::uint64_t occupiedSets() const;

    /**
     * Peak-to-mean pressure: max set count / (total / sets). 1.0 is a
     * perfectly balanced placement; a pathological stride drives it
     * toward the set count.
     */
    double imbalance() const;
};

/** One conflicting block pair and how often it recurred. */
struct AddrPairConflict
{
    std::uint64_t blockA = 0; ///< smaller block address
    std::uint64_t blockB = 0; ///< larger block address
    std::uint64_t count = 0;  ///< same-set transitions observed
};

/** Everything the profiler measured. */
struct ConflictProfile
{
    std::uint64_t accesses = 0;
    unsigned setBits = 0;
    std::vector<WaySetProfile> perWay; ///< empty without an index

    CacheStats target; ///< the wrapped target's primary-level stats
    CacheStats shadow; ///< fully-associative shadow stats
    bool hasShadow = false;

    /**
     * Multicore attribution, copied from the wrapped target when it is
     * an N-core system: per-core rows with the inter-core eviction and
     * conflict-miss attribution — the multicore analogue of the
     * per-program scenario attribution.
     */
    bool hasMultiCore = false;
    MultiCoreStats multicore;

    /**
     * Misses beyond the fully-associative shadow's: the conflict-miss
     * component of the three-C decomposition (0 when the target out-
     * performs the shadow, which LRU pathologies make possible).
     */
    std::uint64_t conflictMisses() const;

    /** conflictMisses() over total accesses, in [0, 1]. */
    double conflictMissRatio() const;

    /** The @p n most frequent conflicting pairs, most frequent first. */
    std::vector<AddrPairConflict> topPairs(std::size_t n) const;

    /** Human-readable multi-line report (cac_sim --analyze --trace). */
    std::string report(std::size_t top_pairs = 8) const;

    /** Transition counts keyed by the exact (blockA, blockB) pair. */
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t>
        pairCounts;
};

/** What the profiler records (everything on by default). */
struct ProfilerOptions
{
    bool shadow = true; ///< run the fully-associative shadow model
    bool pairs = true;  ///< record conflicting address pairs
    /** Bound on distinct pairs tracked (new pairs drop when full). */
    std::size_t maxPairs = 1 << 16;
};

/**
 * SimTarget decorator recording a ConflictProfile while forwarding
 * every access to the wrapped target. Attach an index function (or an
 * already-compiled plan) to enable the per-set histograms; enable the
 * shadow model for conflict-miss attribution. Both are optional so the
 * profiler stays cheap inside large search grids.
 */
class ConflictProfiler : public SimTarget
{
  public:
    using Options = ProfilerOptions;

    /**
     * @param inner the target to observe (owned).
     * @param geometry geometry of the cache under study: provides the
     *        block-offset shift, the set count, and the shadow model's
     *        capacity.
     */
    ConflictProfiler(std::unique_ptr<SimTarget> inner,
                     const CacheGeometry &geometry, Options options = {});

    /**
     * Enable per-set histograms using a private copy of a compiled
     * plan. The plan must not be a Callback plan borrowing a foreign
     * IndexFn unless that function outlives the profiler.
     */
    void attachIndex(IndexPlan plan);

    /** Enable per-set histograms, taking ownership of @p fn. */
    void attachIndex(std::unique_ptr<IndexFn> fn);

    std::string name() const override { return inner_->name(); }
    TargetKind kind() const override { return inner_->kind(); }
    void accessBatch(const std::uint64_t *addrs, std::size_t n,
                     bool is_write) override;
    void replay(const TraceRecord *recs, std::size_t n) override;
    void finish() override;
    void checkpoint() override;
    /**
     * Forwards the cold-flush to the wrapped target AND flushes the
     * shadow model, so the conflict-miss attribution keeps comparing
     * like with like across scenario context switches (a warm shadow
     * against a flushed target would inflate "conflict" misses with
     * what are really cold misses).
     */
    void flushPrimary() override;
    TargetStats stats() const override { return inner_->stats(); }

    /**
     * The measured profile; target/shadow stats are synchronized on
     * every call, so this is valid at any stream point after finish().
     */
    const ConflictProfile &profile() const;

    const SimTarget &inner() const { return *inner_; }

  private:
    void observeOne(std::uint64_t addr);

    std::unique_ptr<SimTarget> inner_;
    CacheGeometry geometry_;
    Options options_;
    std::unique_ptr<IndexFn> index_; ///< owned mapping (may be null)
    IndexPlan plan_;
    bool have_plan_ = false;
    std::unique_ptr<FullyAssocCache> shadow_;
    MemRunGatherer shadow_gather_;
    /** Last distinct block observed per way-0 home set. */
    std::vector<std::uint64_t> last_block_;
    std::vector<bool> last_valid_;
    /** That block's cached per-way sets: last_sets_[home * ways + w]. */
    std::vector<std::uint64_t> last_sets_;
    mutable ConflictProfile profile_;
    /** Scratch for per-way set indices (no per-access allocation). */
    std::vector<std::uint64_t> way_sets_;
};

} // namespace cac

#endif // CAC_ANALYSIS_CONFLICT_PROFILER_HH
