/**
 * @file
 * Set-associative cache with a pluggable placement function.
 *
 * This one class covers the paper's direct-mapped, conventional
 * set-associative, skewed-associative (XOR) and I-Poly organizations:
 * the difference between them is entirely inside the IndexFn. Because a
 * skewed placement maps one block to a different set per way, lines
 * store the full block address rather than a truncated tag (a real
 * implementation stores enough tag bits to disambiguate; the simulator
 * keeps the whole address for clarity).
 *
 * The IndexFn is compiled once at construction into an IndexPlan (see
 * index/index_plan.hh); every lookup and fill evaluates the plan
 * inline, so the hot path performs no virtual dispatch and no heap
 * allocation regardless of the placement scheme.
 *
 * One state machine: every scalar entry point (access, accessPacked,
 * tryAccess, fill, probe, invalidate, isDirty) evaluates the plan once
 * into a *way-set view* and hands it to the same two bodies — step()
 * (hit, refused miss, or miss and fill) and fillWith() (victim choice
 * and install). The views are PackedSets, which extracts each way's set
 * from one packed index word (Modulo and Packed plans, i.e. every
 * registry organization), and ArraySets, which reads indexAll() output
 * from a stack buffer (RowMask and Callback plans).
 *
 * The batch kernel keeps its own plain-LRU hit loop, with the tick and
 * the load/store counters hoisted into registers (the compiler cannot
 * hoist them: every line store may alias the members). Together with
 * the batched index pass it makes batch replay about twice the scalar
 * rate (docs/PERF_LOG.md). It is chosen by the policy's isPlainLru(),
 * not by an option; every miss, and every access under another policy,
 * goes through fillWith()/step().
 */

#ifndef CAC_CACHE_SET_ASSOC_HH
#define CAC_CACHE_SET_ASSOC_HH

#include <memory>
#include <vector>

#include "cache/cache_model.hh"
#include "cache/replacement.hh"
#include "index/index_fn.hh"
#include "index/index_plan.hh"

namespace cac
{

/** Write-miss allocation policy. */
enum class WriteAllocate
{
    No, ///< write misses do not fill (paper's L1: write-through no-WA)
    Yes ///< write misses allocate like read misses
};

/** Configurable set-associative / skewed cache. */
class SetAssocCache final : public CacheModel
{
  public:
    /**
     * @param geometry capacity / block / ways.
     * @param index_fn placement function; its setBits() and numWays()
     *        must match @p geometry.
     * @param repl replacement policy (defaults to LRU when null).
     * @param write_allocate allocate on write misses?
     * @param write_back track dirty lines and count writebacks?
     */
    SetAssocCache(const CacheGeometry &geometry,
                  std::unique_ptr<IndexFn> index_fn,
                  std::unique_ptr<ReplacementPolicy> repl = nullptr,
                  WriteAllocate write_allocate = WriteAllocate::Yes,
                  bool write_back = false);

    AccessResult access(std::uint64_t addr, bool is_write) override;
    void accessBatch(const std::uint64_t *addrs, std::size_t n,
                     bool is_write) override;
    void accessMixed(const std::uint64_t *addrs, const bool *writes,
                     std::size_t n) override;
    bool probe(std::uint64_t addr) const override;
    bool invalidate(std::uint64_t addr) override;
    void flush() override;
    std::string name() const override;

    /** The placement function in use. */
    const IndexFn &indexFn() const { return *index_fn_; }

    /**
     * The compiled evaluation plan the hot path runs on (recompiled
     * automatically when indexFn().planEpoch() changes).
     */
    const IndexPlan &indexPlan() const
    {
        ensurePlan();
        return plan_;
    }

    /**
     * Fill a block without recording an access (used by hierarchies and
     * two-probe wrappers that account for the access themselves).
     *
     * @return the eviction outcome.
     */
    AccessResult fill(std::uint64_t addr, bool dirty = false);

    /** True when the block containing @p addr is present and dirty. */
    bool isDirty(std::uint64_t addr) const;

    /**
     * Hot-path entry for callers that batch-precompute index words:
     * identical to access() on the block containing @p block_addr,
     * but consumes @p packed — the indexPlan().packedOne() /
     * indexPackedBatch() word for @p block_addr — instead of
     * re-evaluating the placement function. Precondition: the plan is
     * packedCapable() and @p packed was computed against the current
     * plan epoch (hold no packed words across a reprogram).
     */
    AccessResult accessPacked(std::uint64_t block_addr,
                              std::uint64_t packed, bool is_write);

    /**
     * Fused probe + access with one index evaluation: when the block
     * is present, or @p allow_fill is true, performs exactly what
     * access(addr, is_write) would and returns true; otherwise leaves
     * the cache (stats included) untouched and returns false. This is
     * the MSHR-gated L1 lookup of the timing model and the victim
     * cache's main-array lookup, which would otherwise pay probe()
     * *and* access().
     */
    bool tryAccess(std::uint64_t addr, bool is_write, bool allow_fill,
                   AccessResult &out);

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t block = 0; ///< full block address
        ReplState repl;
    };

    /** Way-set view over a packed index word (Modulo / Packed plans). */
    struct PackedSets
    {
        const IndexPlan &plan;
        std::uint64_t packed;

        std::uint64_t operator[](unsigned way) const
        {
            return plan.wayFromPacked(packed, way);
        }
    };

    /** Way-set view over indexAll() output (RowMask / Callback plans). */
    struct ArraySets
    {
        const std::uint64_t *sets;

        std::uint64_t operator[](unsigned way) const { return sets[way]; }
    };

    Line &lineAt(unsigned way, std::uint64_t set);
    const Line &lineAt(unsigned way, std::uint64_t set) const;

    /**
     * Evaluate the plan for @p block_addr once and call @p fn with the
     * matching way-set view; returns what @p fn returns.
     */
    template <typename Fn>
    auto withSets(std::uint64_t block_addr, Fn &&fn) const;

    /** Way holding @p block_addr, or ways() when it is absent. */
    template <typename Sets>
    unsigned findWay(std::uint64_t block_addr, const Sets &sets) const;

    /** The line holding the block of @p addr, or nullptr. */
    const Line *lookup(std::uint64_t addr) const;

    /**
     * The one scalar state machine. A hit updates replacement and dirty
     * state; a miss with @p allow_fill counts the miss and fills (unless
     * write-no-allocate). Returns false, touching nothing, only for a
     * miss without @p allow_fill.
     */
    template <typename Sets>
    bool step(std::uint64_t block_addr, const Sets &sets, bool is_write,
              bool allow_fill, AccessResult &out);

    /** The one fill body: choose a victim among the ways and install. */
    template <typename Sets>
    AccessResult fillWith(std::uint64_t block_addr, const Sets &sets,
                          bool dirty);

    /**
     * The one batch kernel behind accessBatch() and accessMixed(),
     * templated on the kind source (UniformKind / MixedKind).
     */
    template <typename Kind>
    void batchKernel(const std::uint64_t *addrs, std::size_t n,
                     Kind kind);

    /**
     * Recompile the plan if the index function was reprogrammed since
     * the last compile (ConfigurableIndex). One load + compare on the
     * hot path; every other IndexFn keeps a constant epoch.
     */
    void ensurePlan() const
    {
        if (index_fn_->planEpoch() != plan_epoch_) {
            plan_ = compilePlan(*index_fn_);
            plan_epoch_ = index_fn_->planEpoch();
        }
    }

    std::unique_ptr<IndexFn> index_fn_;
    /** Compiled form of index_fn_; all lookups go through it. */
    mutable IndexPlan plan_;
    mutable std::uint64_t plan_epoch_ = 0;
    std::unique_ptr<ReplacementPolicy> repl_;
    /**
     * Cached repl_->isPlainLru(): step(), fillWith() and the batch
     * fast path inline the whole LRU policy (touch on hit,
     * first-invalid-else-oldest on fill) instead of virtual calls.
     */
    bool repl_plain_lru_ = false;
    WriteAllocate write_allocate_;
    bool write_back_;
    std::uint64_t tick_ = 0; ///< access counter driving LRU/FIFO
    /** lines_[way * numSets + set]. */
    std::vector<Line> lines_;
    /**
     * Set-index scratch for RowMask / Callback plans beyond 32 ways
     * (withSets() uses a stack buffer below that), so concurrent probe()
     * calls on realistic associativities never share mutable state.
     */
    mutable std::vector<std::uint64_t> way_sets_;
    /** Per-fill scratch candidates, sized ways() once (no allocation). */
    std::vector<ReplCandidate> fill_candidates_;
};

} // namespace cac

#endif // CAC_CACHE_SET_ASSOC_HH
