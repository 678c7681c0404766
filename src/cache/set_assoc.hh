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
 * Placement and replacement are fixed when the cache is built: the
 * IndexFn is compiled once, in the constructor, into an IndexPlan (see
 * index/index_plan.hh) and never recompiled; every lookup and fill
 * evaluates the plan inline, so the hot path performs no virtual
 * dispatch and no heap allocation regardless of the placement scheme.
 *
 * One state machine: every scalar entry point (access, accessPacked,
 * tryAccess, fill, probe, invalidate) evaluates the plan once
 * into a *way-set view* and hands it to the same two bodies — step()
 * (hit, refused miss, or miss and fill) and fillWith() (victim choice
 * and install). The views are PackedSets, which extracts each way's set
 * from one packed index word (Modulo and Packed plans, i.e. every
 * registry organization), and ArraySets, which reads indexAll() output
 * from a stack buffer (RowMask and Callback plans).
 *
 * Replacement is one ReplKind, fixed at construction, and one stamp
 * word per line (see Line): a hit and a fill write the stamp, and one
 * victim scan serves every policy — a skewed placement puts each way's
 * candidate in a different set, so the policies rank lines by their own
 * state, never by a per-set stack.
 *
 * One batch kernel, batchKernel(), replays a run of addresses over
 * index words precomputed a tile at a time. Under LRU (the default
 * ReplKind, not an option) it runs the class's only LRU hit loop,
 * with the tick and the load/store counters
 * hoisted into registers (the compiler cannot hoist them: every line
 * store may alias the members); every miss fills inside the loop
 * through fillWith(), and every access under another policy goes
 * through step(). Together with the batched index pass this makes
 * batch replay about twice the scalar rate (docs/PERF_LOG.md). The
 * kernel reports each miss (after its fill) to a caller-supplied event
 * handler, a template parameter: accessBatch() and accessMixed() pass
 * NoEvents, which inlines away, and CoherentSystem passes one that
 * runs its miss path, so the coherent targets replay their L1 hits at
 * cache speed.
 */

#ifndef CAC_CACHE_SET_ASSOC_HH
#define CAC_CACHE_SET_ASSOC_HH

#include <limits>
#include <memory>
#include <vector>

#include "cache/cache_model.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "index/index_fn.hh"
#include "index/index_plan.hh"

namespace cac
{

/** Replacement policy of a SetAssocCache. */
enum class ReplKind
{
    Lru,    ///< evict the least recently touched line
    Fifo,   ///< evict the earliest filled line
    Random, ///< evict a uniformly drawn way (seed 1)
    Nru     ///< evict the first unreferenced line; age all when none is
};

/** Write-miss allocation policy. */
enum class WriteAllocate
{
    No, ///< write misses do not fill (paper's L1: write-through no-WA)
    Yes ///< write misses allocate like read misses
};

/** Set-associative or skewed cache; see the file comment. */
class SetAssocCache final : public CacheModel
{
  public:
    /**
     * @param geometry capacity / block / ways.
     * @param index_fn placement function; its setBits() and numWays()
     *        must match @p geometry.
     * @param repl replacement policy.
     * @param write_allocate allocate on write misses?
     */
    SetAssocCache(const CacheGeometry &geometry,
                  std::unique_ptr<IndexFn> index_fn,
                  ReplKind repl = ReplKind::Lru,
                  WriteAllocate write_allocate = WriteAllocate::Yes);

    AccessResult access(std::uint64_t addr, bool is_write) override;
    void accessBatch(const std::uint64_t *addrs, std::size_t n,
                     bool is_write) override;
    void accessMixed(const std::uint64_t *addrs, const bool *writes,
                     std::size_t n) override;
    bool probe(std::uint64_t addr) const override;
    void forEachBlock(
        const std::function<void(std::uint64_t)> &visit) const override;
    bool invalidate(std::uint64_t addr) override;
    void flush() override;
    std::string name() const override;

    /** The placement function in use. */
    const IndexFn &indexFn() const { return *index_fn_; }

    /** The compiled evaluation plan the hot path runs on. */
    const IndexPlan &indexPlan() const { return plan_; }

    /**
     * Fill a block without recording an access (used by hierarchies and
     * two-probe wrappers that account for the access themselves).
     *
     * @return the eviction outcome.
     */
    AccessResult fill(std::uint64_t addr);

    /**
     * Hot-path entry for callers that batch-precompute index words:
     * identical to access() on the block containing @p block_addr,
     * but consumes @p packed — the indexPlan().packedOne() /
     * indexPackedBatch() word for @p block_addr — instead of
     * re-evaluating the placement function. Precondition: the plan is
     * packedCapable().
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

    /** The batchKernel() event handler that reports nothing. */
    struct NoEvents
    {
        /**
         * Access @p i (a store when @p is_write) missed: @p r is its
         * outcome, fill and eviction included.
         */
        void miss(std::size_t, bool, const AccessResult &) {}
    };

    /**
     * The one batch kernel behind accessBatch() and accessMixed():
     * replays @p n accesses exactly as n access() calls would, taking
     * each one's kind from @p kind (UniformKind / MixedKind), and
     * reports every miss to @p events (see NoEvents) right after its
     * fill, with its index into [0, n). A handler may invalidate lines
     * of this cache, and access or fill any other, but must not access
     * or fill this one: the kernel holds its tick and access counters
     * in registers.
     */
    template <typename Kind, typename Events>
    void batchKernel(const std::uint64_t *addrs, std::size_t n, Kind kind,
                     Events events);

  private:
    /**
     * One line: 24 bytes. The stamp is the policy's one word of state:
     * the last touch's tick under LRU, the fill's tick under FIFO, and
     * the reference bit (0 or 1) under NRU. Random does not read it.
     */
    struct Line
    {
        bool valid = false;
        std::uint64_t block = 0; ///< full block address
        std::uint64_t stamp = 0; ///< replacement state, see above
    };
    static_assert(sizeof(Line) == 24, "a line is valid, block and stamp");

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

    Line &lineAt(unsigned way, std::uint64_t set)
    {
        return lines_[(std::uint64_t{way} << geometry_.setBits()) + set];
    }

    const Line &lineAt(unsigned way, std::uint64_t set) const
    {
        return lines_[(std::uint64_t{way} << geometry_.setBits()) + set];
    }

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
     * The one scalar state machine. A hit updates replacement state; a
     * miss with @p allow_fill counts the miss and fills (unless
     * write-no-allocate). Returns false, touching nothing, only for a
     * miss without @p allow_fill.
     */
    template <typename Sets>
    bool step(std::uint64_t block_addr, const Sets &sets, bool is_write,
              bool allow_fill, AccessResult &out);

    /** The one fill body: choose a victim among the ways and install. */
    template <typename Sets>
    AccessResult fillWith(std::uint64_t block_addr, const Sets &sets);

    /**
     * Victim of a full set whose stamps do not decide it: a drawn way
     * under Random; under NRU with every reference bit set, way 0 after
     * clearing every candidate's bit. Out of line on purpose: inlined
     * into fillWith(), it slows the victim cache's main-array fills.
     */
    template <typename Sets>
    [[gnu::noinline]] unsigned undecidedVictim(const Sets &sets);

    std::unique_ptr<IndexFn> index_fn_;
    /** Compiled form of index_fn_, built once; all lookups use it. */
    IndexPlan plan_;
    ReplKind repl_;
    Rng rng_{1}; ///< Random's victim draws
    WriteAllocate write_allocate_;
    std::uint64_t tick_ = 0; ///< access counter driving LRU/FIFO
    /** lines_[way * numSets + set]. */
    std::vector<Line> lines_;
    /**
     * Set-index scratch for RowMask / Callback plans beyond 32 ways
     * (withSets() uses a stack buffer below that), so concurrent probe()
     * calls on realistic associativities never share mutable state.
     */
    mutable std::vector<std::uint64_t> way_sets_;
};

// fillWith() and batchKernel() are defined here, not in set_assoc.cc,
// so that CoherentSystem's instantiation of the kernel inlines its
// hit loop and fills like the plain replay's does.

template <typename Sets>
AccessResult
SetAssocCache::fillWith(std::uint64_t block_addr, const Sets &sets)
{
    // The one victim scan: the first invalid way, else the first way
    // with the smallest stamp — LRU and FIFO exactly, NRU whenever a
    // reference bit is clear.
    const unsigned ways = geometry_.ways();
    unsigned victim = 0;
    bool full = true;
    std::uint64_t least = std::numeric_limits<std::uint64_t>::max();
    for (unsigned w = 0; w < ways; ++w) {
        const Line &line = lineAt(w, sets[w]);
        if (!line.valid) {
            victim = w;
            full = false;
            break;
        }
        if (line.stamp < least) {
            least = line.stamp;
            victim = w;
        }
    }
    if (full
        && (repl_ == ReplKind::Random
            || (repl_ == ReplKind::Nru && least != 0)))
        victim = undecidedVictim(sets);

    Line &line = lineAt(victim, sets[victim]);
    AccessResult r;
    r.filled = true;
    ++stats_.fills;
    if (line.valid) {
        ++stats_.evictions;
        r.evictedAddr = geometry_.byteAddr(line.block);
    }
    line.valid = true;
    line.block = block_addr;
    line.stamp = repl_ == ReplKind::Nru ? 0 : tick_;
    return r;
}

template <typename Sets>
unsigned
SetAssocCache::undecidedVictim(const Sets &sets)
{
    const unsigned ways = geometry_.ways();
    if (repl_ == ReplKind::Random)
        return static_cast<unsigned>(rng_.nextBelow(ways));
    for (unsigned w = 0; w < ways; ++w)
        lineAt(w, sets[w]).stamp = 0;
    return 0;
}

template <typename Kind, typename Events>
void
SetAssocCache::batchKernel(const std::uint64_t *addrs, std::size_t n,
                           Kind kind, Events events)
{
    const auto report = [&](std::size_t i, bool is_write,
                            const AccessResult &r) {
        if (!r.hit)
            events.miss(i, is_write, r);
    };
    if (!plan_.packedCapable()) {
        for (std::size_t i = 0; i < n; ++i) {
            const bool is_write = kind.isWrite(i);
            report(i, is_write, access(addrs[i], is_write));
        }
        return;
    }
    // Tile the stream: one SIMD/SWAR index pass per tile, then the
    // per-address state machine consumes the precomputed words.
    constexpr std::size_t kTile = 256;
    std::uint64_t blocks[kTile];
    std::uint64_t packed[kTile];
    const unsigned ways = geometry_.ways();
    for (std::size_t base = 0; base < n; base += kTile) {
        const std::size_t m = n - base < kTile ? n - base : kTile;
        for (std::size_t i = 0; i < m; ++i)
            blocks[i] = geometry_.blockAddr(addrs[base + i]);
        plan_.indexPackedBatch(blocks, m, packed);
        if (repl_ != ReplKind::Lru) {
            for (std::size_t i = 0; i < m; ++i) {
                const bool is_write = kind.isWrite(base + i);
                report(base + i, is_write,
                       accessPacked(blocks[i], packed[i], is_write));
            }
            continue;
        }
        // The LRU hit loop, with the access counters hoisted
        // into registers. Misses sync tick_ and fill in place; the
        // counter totals are order-independent, so bulk-adding
        // loads/stores up front is stats-identical to step()'s
        // per-access increments.
        const std::size_t stores = kind.writesIn(base, m);
        stats_.stores += stores;
        stats_.loads += m - stores;
        std::uint64_t tick = tick_;
        for (std::size_t i = 0; i < m; ++i) {
            ++tick;
            const bool is_write = kind.isWrite(base + i);
            const std::uint64_t block = blocks[i];
            Line *hit = nullptr;
            for (unsigned w = 0; w < ways; ++w) {
                Line &line =
                    lineAt(w, plan_.wayFromPacked(packed[i], w));
                if (line.valid && line.block == block) {
                    hit = &line;
                    break;
                }
            }
            if (hit) {
                hit->stamp = tick;
                continue;
            }
            tick_ = tick; // fillWith stamps new lines from tick_
            if (is_write) {
                ++stats_.storeMisses;
                if (write_allocate_ == WriteAllocate::No) {
                    events.miss(base + i, true, AccessResult{});
                    continue;
                }
            } else {
                ++stats_.loadMisses;
            }
            events.miss(base + i, is_write,
                        fillWith(block, PackedSets{plan_, packed[i]}));
        }
        tick_ = tick;
    }
}

} // namespace cac

#endif // CAC_CACHE_SET_ASSOC_HH
