#include "cache/set_assoc.hh"

namespace cac
{

SetAssocCache::SetAssocCache(const CacheGeometry &geometry,
                             std::unique_ptr<IndexFn> index_fn,
                             ReplKind repl,
                             WriteAllocate write_allocate)
    : CacheModel(geometry),
      index_fn_(std::move(index_fn)),
      repl_(repl),
      write_allocate_(write_allocate)
{
    CAC_ASSERT(index_fn_ != nullptr);
    CAC_ASSERT(index_fn_->setBits() == geometry.setBits());
    CAC_ASSERT(index_fn_->numWays() == geometry.ways());
    lines_.resize(geometry.numBlocks());
    plan_ = compilePlan(*index_fn_);
    way_sets_.resize(geometry.ways());
}

template <typename Fn>
auto
SetAssocCache::withSets(std::uint64_t block_addr, Fn &&fn) const
{
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

// Inlined into every caller: accessPacked() runs it once per shared-L2
// access of the coherent targets, where an out-of-line call
// measurably costs.
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
        Line &line = lineAt(way, sets[way]);
        if (repl_ == ReplKind::Lru)
            line.stamp = tick_;
        else if (repl_ == ReplKind::Nru)
            line.stamp = 1;
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
    out = fillWith(block_addr, sets);
    return true;
}

void
SetAssocCache::accessBatch(const std::uint64_t *addrs, std::size_t n,
                           bool is_write)
{
    batchKernel(addrs, n, UniformKind{is_write}, NoEvents{});
}

void
SetAssocCache::accessMixed(const std::uint64_t *addrs, const bool *writes,
                           std::size_t n)
{
    batchKernel(addrs, n, MixedKind{writes}, NoEvents{});
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
SetAssocCache::fill(std::uint64_t addr)
{
    ++tick_;
    const std::uint64_t block = geometry_.blockAddr(addr);
    return withSets(block,
                    [&](const auto &sets) { return fillWith(block, sets); });
}

bool
SetAssocCache::probe(std::uint64_t addr) const
{
    return lookup(addr) != nullptr;
}

void
SetAssocCache::forEachBlock(
    const std::function<void(std::uint64_t)> &visit) const
{
    for (const Line &line : lines_) {
        if (line.valid)
            visit(geometry_.byteAddr(line.block));
    }
}

bool
SetAssocCache::invalidate(std::uint64_t addr)
{
    if (Line *line = const_cast<Line *>(lookup(addr))) {
        line->valid = false;
        ++stats_.invalidations;
        return true;
    }
    return false;
}

void
SetAssocCache::flush()
{
    for (auto &line : lines_)
        line.valid = false;
}

std::string
SetAssocCache::name() const
{
    return geometry_.toString() + " " + index_fn_->name();
}

} // namespace cac
