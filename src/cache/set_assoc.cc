#include "cache/set_assoc.hh"

#include <limits>

#include "common/logging.hh"

namespace cac
{

SetAssocCache::SetAssocCache(const CacheGeometry &geometry,
                             std::unique_ptr<IndexFn> index_fn,
                             std::unique_ptr<ReplacementPolicy> repl,
                             WriteAllocate write_allocate, bool write_back)
    : CacheModel(geometry),
      index_fn_(std::move(index_fn)),
      repl_(std::move(repl)),
      write_allocate_(write_allocate),
      write_back_(write_back)
{
    CAC_ASSERT(index_fn_ != nullptr);
    CAC_ASSERT(index_fn_->setBits() == geometry.setBits());
    CAC_ASSERT(index_fn_->numWays() == geometry.ways());
    if (!repl_) {
        repl_ = makeReplacementPolicy(ReplKind::Lru, geometry.numSets(),
                                      geometry.ways());
    }
    repl_plain_lru_ = repl_->isPlainLru();
    lines_.resize(geometry.numBlocks());
    plan_ = compilePlan(*index_fn_);
    plan_epoch_ = index_fn_->planEpoch();
    way_sets_.resize(geometry.ways());
    fill_candidates_.resize(geometry.ways());
}

SetAssocCache::Line &
SetAssocCache::lineAt(unsigned way, std::uint64_t set)
{
    return lines_[(std::uint64_t{way} << geometry_.setBits()) + set];
}

const SetAssocCache::Line &
SetAssocCache::lineAt(unsigned way, std::uint64_t set) const
{
    return lines_[(std::uint64_t{way} << geometry_.setBits()) + set];
}

template <typename Fn>
auto
SetAssocCache::withSets(std::uint64_t block_addr, Fn &&fn) const
{
    ensurePlan();
    if (plan_.packedCapable())
        return fn(PackedSets{plan_, plan_.packedOne(block_addr)});
    // Stack buffer keeps const lookups free of shared mutable state
    // (concurrent probe() calls stay safe); associativities beyond
    // kStackWays spill to the per-instance scratch, losing only that
    // concurrency guarantee.
    constexpr unsigned kStackWays = 32;
    std::uint64_t stack_sets[kStackWays];
    std::uint64_t *sets =
        geometry_.ways() <= kStackWays ? stack_sets : way_sets_.data();
    plan_.indexAll(block_addr, sets);
    return fn(ArraySets{sets});
}

template <typename Sets>
unsigned
SetAssocCache::findWay(std::uint64_t block_addr, const Sets &sets) const
{
    const unsigned ways = geometry_.ways();
    for (unsigned w = 0; w < ways; ++w) {
        const Line &line = lineAt(w, sets[w]);
        if (line.valid && line.block == block_addr)
            return w;
    }
    return ways;
}

const SetAssocCache::Line *
SetAssocCache::lookup(std::uint64_t addr) const
{
    const std::uint64_t block = geometry_.blockAddr(addr);
    return withSets(block, [&](const auto &sets) -> const Line * {
        const unsigned way = findWay(block, sets);
        return way < geometry_.ways() ? &lineAt(way, sets[way]) : nullptr;
    });
}

// Inlined into every caller: accessPacked() runs it once per L1 access
// of the coherent targets, where an out-of-line call measurably costs.
template <typename Sets>
[[gnu::always_inline]] inline bool
SetAssocCache::step(std::uint64_t block_addr, const Sets &sets,
                    bool is_write, bool allow_fill, AccessResult &out)
{
    const unsigned way = findWay(block_addr, sets);
    const bool hit = way < geometry_.ways();
    if (!hit && !allow_fill)
        return false;

    ++tick_;
    if (is_write)
        ++stats_.stores;
    else
        ++stats_.loads;

    if (hit) {
        const std::uint64_t set = sets[way];
        Line &line = lineAt(way, set);
        if (repl_plain_lru_)
            line.repl.lastTouch = tick_;
        else
            repl_->onAccess(line.repl, set, way, tick_);
        if (is_write && write_back_)
            line.dirty = true;
        out = AccessResult{};
        out.hit = true;
        return true;
    }

    if (is_write) {
        ++stats_.storeMisses;
        if (write_allocate_ == WriteAllocate::No) {
            out = AccessResult{}; // write-through no-allocate: no fill
            return true;
        }
    } else {
        ++stats_.loadMisses;
    }
    out = fillWith(block_addr, sets, is_write && write_back_);
    return true;
}

template <typename Sets>
AccessResult
SetAssocCache::fillWith(std::uint64_t block_addr, const Sets &sets,
                        bool dirty)
{
    const unsigned ways = geometry_.ways();
    unsigned victim = 0;
    if (repl_plain_lru_) {
        // Inlined LRU victim scan, identical to LruPolicy: the first
        // invalid candidate in way order, else the first line with the
        // smallest lastTouch.
        std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
        for (unsigned w = 0; w < ways; ++w) {
            const Line &line = lineAt(w, sets[w]);
            if (!line.valid) {
                victim = w;
                break;
            }
            if (line.repl.lastTouch < oldest) {
                oldest = line.repl.lastTouch;
                victim = w;
            }
        }
    } else {
        for (unsigned w = 0; w < ways; ++w) {
            const std::uint64_t set = sets[w];
            const Line &line = lineAt(w, set);
            fill_candidates_[w] =
                ReplCandidate{line.valid, &line.repl, set, w};
        }
        victim = static_cast<unsigned>(repl_->chooseVictim(fill_candidates_));
        CAC_ASSERT(victim < ways);
    }

    const std::uint64_t set = sets[victim];
    Line &line = lineAt(victim, set);
    AccessResult r;
    r.filled = true;
    ++stats_.fills;
    if (line.valid) {
        ++stats_.evictions;
        r.evictedAddr = geometry_.byteAddr(line.block);
        r.evictedDirty = line.dirty;
        if (line.dirty)
            ++stats_.writebacks;
    }
    line.valid = true;
    line.dirty = dirty;
    line.block = block_addr;
    if (repl_plain_lru_) {
        line.repl.lastTouch = tick_;
        line.repl.insertTick = tick_;
        line.repl.referenced = false;
    } else {
        repl_->onInsert(line.repl, set, victim, tick_);
    }
    return r;
}

template <typename Kind>
void
SetAssocCache::batchKernel(const std::uint64_t *addrs, std::size_t n,
                           Kind kind)
{
    ensurePlan();
    if (!plan_.packedCapable()) {
        for (std::size_t i = 0; i < n; ++i)
            access(addrs[i], kind.isWrite(i));
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
        if (!repl_plain_lru_) {
            for (std::size_t i = 0; i < m; ++i)
                accessPacked(blocks[i], packed[i], kind.isWrite(base + i));
            continue;
        }
        // Plain-LRU hit fast path with the access counters hoisted
        // into registers (the compiler cannot do it: every line store
        // may alias the members). Misses sync tick_ and drop to
        // fillWith(); the counter totals are order-independent, so
        // bulk-adding loads/stores up front is stats-identical to
        // step()'s per-access increments.
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
                hit->repl.lastTouch = tick;
                if (is_write && write_back_)
                    hit->dirty = true;
                continue;
            }
            tick_ = tick; // fillWith stamps new lines from tick_
            if (is_write) {
                ++stats_.storeMisses;
                if (write_allocate_ == WriteAllocate::No)
                    continue;
            } else {
                ++stats_.loadMisses;
            }
            fillWith(block, PackedSets{plan_, packed[i]},
                     is_write && write_back_);
        }
        tick_ = tick;
    }
}

void
SetAssocCache::accessBatch(const std::uint64_t *addrs, std::size_t n,
                           bool is_write)
{
    batchKernel(addrs, n, UniformKind{is_write});
}

void
SetAssocCache::accessMixed(const std::uint64_t *addrs, const bool *writes,
                           std::size_t n)
{
    batchKernel(addrs, n, MixedKind{writes});
}

AccessResult
SetAssocCache::access(std::uint64_t addr, bool is_write)
{
    AccessResult r;
    tryAccess(addr, is_write, true, r);
    return r;
}

AccessResult
SetAssocCache::accessPacked(std::uint64_t block_addr, std::uint64_t packed,
                            bool is_write)
{
    AccessResult r;
    step(block_addr, PackedSets{plan_, packed}, is_write, true, r);
    return r;
}

bool
SetAssocCache::tryAccess(std::uint64_t addr, bool is_write,
                         bool allow_fill, AccessResult &out)
{
    const std::uint64_t block = geometry_.blockAddr(addr);
    return withSets(block, [&](const auto &sets) {
        return step(block, sets, is_write, allow_fill, out);
    });
}

AccessResult
SetAssocCache::fill(std::uint64_t addr, bool dirty)
{
    ++tick_;
    const std::uint64_t block = geometry_.blockAddr(addr);
    return withSets(block, [&](const auto &sets) {
        return fillWith(block, sets, dirty && write_back_);
    });
}

bool
SetAssocCache::probe(std::uint64_t addr) const
{
    return lookup(addr) != nullptr;
}

bool
SetAssocCache::invalidate(std::uint64_t addr)
{
    if (Line *line = const_cast<Line *>(lookup(addr))) {
        line->valid = false;
        line->dirty = false;
        ++stats_.invalidations;
        return true;
    }
    return false;
}

void
SetAssocCache::flush()
{
    for (auto &line : lines_) {
        line.valid = false;
        line.dirty = false;
    }
}

std::string
SetAssocCache::name() const
{
    return geometry_.toString() + " " + index_fn_->name();
}

bool
SetAssocCache::isDirty(std::uint64_t addr) const
{
    const Line *line = lookup(addr);
    return line != nullptr && line->dirty;
}

} // namespace cac
