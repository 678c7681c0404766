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

SetAssocCache::Line *
SetAssocCache::findLine(std::uint64_t block_addr)
{
    const Line *line =
        static_cast<const SetAssocCache *>(this)->findLine(block_addr);
    return const_cast<Line *>(line);
}

const SetAssocCache::Line *
SetAssocCache::findLine(std::uint64_t block_addr) const
{
    ensurePlan();
    const unsigned ways = geometry_.ways();
    if (plan_.uniform()) {
        // Non-skewed placement: one set shared by every way.
        const std::uint64_t set = plan_.indexOne(block_addr, 0);
        for (unsigned w = 0; w < ways; ++w) {
            const Line &line = lineAt(w, set);
            if (line.valid && line.block == block_addr)
                return &line;
        }
        return nullptr;
    }
    // Stack buffer keeps const lookups free of shared mutable state
    // (concurrent probe() calls stay safe); associativities beyond
    // kStackWays spill to the per-instance scratch, losing only that
    // concurrency guarantee.
    constexpr unsigned kStackWays = 32;
    std::uint64_t stack_sets[kStackWays];
    std::uint64_t *sets =
        ways <= kStackWays ? stack_sets : way_sets_.data();
    plan_.indexAll(block_addr, sets);
    for (unsigned w = 0; w < ways; ++w) {
        const Line &line = lineAt(w, sets[w]);
        if (line.valid && line.block == block_addr)
            return &line;
    }
    return nullptr;
}

AccessResult
SetAssocCache::access(std::uint64_t addr, bool is_write)
{
    return accessOne(addr, is_write);
}

template <typename Kind>
void
SetAssocCache::batchKernel(const std::uint64_t *addrs, std::size_t n,
                           Kind kind)
{
    ensurePlan();
    if (!plan_.packedCapable()) {
        for (std::size_t i = 0; i < n; ++i)
            accessOne(addrs[i], kind.isWrite(i));
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
        // may alias the members). Misses sync tick_ and drop to the
        // shared fill path; the counter totals are order-independent,
        // so bulk-adding loads/stores up front is stats-identical to
        // accessPacked()'s per-access increments.
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
            tick_ = tick; // fillPacked stamps new lines from tick_
            if (is_write) {
                ++stats_.storeMisses;
                if (write_allocate_ == WriteAllocate::No)
                    continue;
            } else {
                ++stats_.loadMisses;
            }
            fillPacked(block, packed[i], is_write && write_back_);
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
SetAssocCache::accessOne(std::uint64_t addr, bool is_write)
{
    ensurePlan();
    const std::uint64_t block = geometry_.blockAddr(addr);
    if (plan_.packedCapable())
        return accessPacked(block, plan_.packedOne(block), is_write);

    ++tick_;
    if (is_write)
        ++stats_.stores;
    else
        ++stats_.loads;

    if (Line *line = findLine(block)) {
        // Recompute this way's set for the policy callback. findLine
        // returned a pointer into lines_, so derive way/set from its
        // position.
        const std::size_t pos =
            static_cast<std::size_t>(line - lines_.data());
        const unsigned way =
            static_cast<unsigned>(pos >> geometry_.setBits());
        const std::uint64_t set =
            pos & (geometry_.numSets() - 1);
        repl_->onAccess(line->repl, set, way, tick_);
        if (is_write && write_back_)
            line->dirty = true;
        AccessResult r;
        r.hit = true;
        return r;
    }

    // Miss.
    if (is_write) {
        ++stats_.storeMisses;
        if (write_allocate_ == WriteAllocate::No) {
            return AccessResult{}; // write-through no-allocate: no fill
        }
    } else {
        ++stats_.loadMisses;
    }
    AccessResult r = fillBlock(block, is_write && write_back_);
    return r;
}

AccessResult
SetAssocCache::accessPacked(std::uint64_t block_addr, std::uint64_t packed,
                            bool is_write)
{
    ++tick_;
    if (is_write)
        ++stats_.stores;
    else
        ++stats_.loads;

    const unsigned ways = geometry_.ways();
    for (unsigned w = 0; w < ways; ++w) {
        const std::uint64_t set = plan_.wayFromPacked(packed, w);
        Line &line = lineAt(w, set);
        if (line.valid && line.block == block_addr) {
            if (repl_plain_lru_)
                line.repl.lastTouch = tick_;
            else
                repl_->onAccess(line.repl, set, w, tick_);
            if (is_write && write_back_)
                line.dirty = true;
            AccessResult r;
            r.hit = true;
            return r;
        }
    }

    // Miss.
    if (is_write) {
        ++stats_.storeMisses;
        if (write_allocate_ == WriteAllocate::No) {
            return AccessResult{}; // write-through no-allocate: no fill
        }
    } else {
        ++stats_.loadMisses;
    }
    return fillPacked(block_addr, packed, is_write && write_back_);
}

bool
SetAssocCache::tryAccess(std::uint64_t addr, bool is_write,
                         bool allow_fill, AccessResult &out)
{
    ensurePlan();
    const std::uint64_t block = geometry_.blockAddr(addr);
    if (!plan_.packedCapable()) {
        if (!allow_fill && findLine(block) == nullptr)
            return false;
        out = accessOne(addr, is_write);
        return true;
    }

    const std::uint64_t packed = plan_.packedOne(block);
    const unsigned ways = geometry_.ways();
    for (unsigned w = 0; w < ways; ++w) {
        const std::uint64_t set = plan_.wayFromPacked(packed, w);
        Line &line = lineAt(w, set);
        if (line.valid && line.block == block) {
            ++tick_;
            if (is_write)
                ++stats_.stores;
            else
                ++stats_.loads;
            if (repl_plain_lru_)
                line.repl.lastTouch = tick_;
            else
                repl_->onAccess(line.repl, set, w, tick_);
            if (is_write && write_back_)
                line.dirty = true;
            out = AccessResult{};
            out.hit = true;
            return true;
        }
    }

    if (!allow_fill)
        return false;

    ++tick_;
    if (is_write) {
        ++stats_.stores;
        ++stats_.storeMisses;
        if (write_allocate_ == WriteAllocate::No) {
            out = AccessResult{};
            return true;
        }
    } else {
        ++stats_.loads;
        ++stats_.loadMisses;
    }
    out = fillPacked(block, packed, is_write && write_back_);
    return true;
}

AccessResult
SetAssocCache::fill(std::uint64_t addr, bool dirty)
{
    ++tick_;
    return fillBlock(geometry_.blockAddr(addr), dirty && write_back_);
}

AccessResult
SetAssocCache::fillBlock(std::uint64_t block_addr, bool dirty)
{
    ensurePlan();
    if (plan_.packedCapable())
        return fillPacked(block_addr, plan_.packedOne(block_addr), dirty);

    // Reuse the member scratch buffers: the fill path allocates nothing.
    plan_.indexAll(block_addr, way_sets_.data());
    std::vector<ReplCandidate> &candidates = fill_candidates_;
    for (unsigned w = 0; w < geometry_.ways(); ++w) {
        const std::uint64_t set = way_sets_[w];
        const Line &line = lineAt(w, set);
        candidates[w].valid = line.valid;
        candidates[w].state = &line.repl;
        candidates[w].set = set;
        candidates[w].way = w;
    }
    const std::size_t victim_pos = repl_->chooseVictim(candidates);
    CAC_ASSERT(victim_pos < candidates.size());
    return installLine(candidates[victim_pos].way,
                       candidates[victim_pos].set, block_addr, dirty);
}

AccessResult
SetAssocCache::fillPacked(std::uint64_t block_addr, std::uint64_t packed,
                          bool dirty)
{
    const unsigned ways = geometry_.ways();
    if (repl_plain_lru_) {
        // Inlined LRU victim scan, identical to LruPolicy: the first
        // invalid candidate in way order, else the first line with the
        // smallest lastTouch.
        unsigned victim_way = 0;
        std::uint64_t victim_set = plan_.wayFromPacked(packed, 0);
        std::uint64_t oldest =
            std::numeric_limits<std::uint64_t>::max();
        for (unsigned w = 0; w < ways; ++w) {
            const std::uint64_t set = plan_.wayFromPacked(packed, w);
            const Line &line = lineAt(w, set);
            if (!line.valid) {
                victim_way = w;
                victim_set = set;
                break;
            }
            if (line.repl.lastTouch < oldest) {
                oldest = line.repl.lastTouch;
                victim_way = w;
                victim_set = set;
            }
        }
        return installLine(victim_way, victim_set, block_addr, dirty);
    }

    std::vector<ReplCandidate> &candidates = fill_candidates_;
    for (unsigned w = 0; w < ways; ++w) {
        const std::uint64_t set = plan_.wayFromPacked(packed, w);
        const Line &line = lineAt(w, set);
        candidates[w].valid = line.valid;
        candidates[w].state = &line.repl;
        candidates[w].set = set;
        candidates[w].way = w;
    }
    const std::size_t victim_pos = repl_->chooseVictim(candidates);
    CAC_ASSERT(victim_pos < candidates.size());
    return installLine(candidates[victim_pos].way,
                       candidates[victim_pos].set, block_addr, dirty);
}

AccessResult
SetAssocCache::installLine(unsigned way, std::uint64_t set,
                           std::uint64_t block_addr, bool dirty)
{
    AccessResult r;
    r.filled = true;
    ++stats_.fills;

    Line &line = lineAt(way, set);
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
        repl_->onInsert(line.repl, set, way, tick_);
    }
    return r;
}

bool
SetAssocCache::probe(std::uint64_t addr) const
{
    return findLine(geometry_.blockAddr(addr)) != nullptr;
}

bool
SetAssocCache::invalidate(std::uint64_t addr)
{
    if (Line *line = findLine(geometry_.blockAddr(addr))) {
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
    const Line *line = findLine(geometry_.blockAddr(addr));
    return line != nullptr && line->dirty;
}

} // namespace cac
