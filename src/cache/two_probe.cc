#include "cache/two_probe.hh"

#include "common/bits.hh"
#include "common/logging.hh"
#include "index/factory.hh"

namespace cac
{

TwoProbeCache::TwoProbeCache(const CacheGeometry &geometry,
                             RehashKind rehash, unsigned input_bits,
                             bool write_allocate)
    : CacheModel(geometry),
      rehash_(rehash),
      write_allocate_(write_allocate),
      lines_(geometry.numBlocks())
{
    if (geometry.ways() != 1)
        fatal("two-probe caches must be direct mapped");
    if (rehash_ == RehashKind::IPoly) {
        poly_ = makeIndexFn(IndexKind::IPoly, geometry.setBits(), 1,
                            input_bits);
        poly_plan_ = compilePlan(*poly_);
    }
}

std::uint64_t
TwoProbeCache::primaryIndex(std::uint64_t block) const
{
    return block & mask(geometry_.setBits());
}

std::uint64_t
TwoProbeCache::secondaryIndex(std::uint64_t block) const
{
    if (rehash_ == RehashKind::FlipTopBit) {
        return primaryIndex(block)
            ^ (std::uint64_t{1} << (geometry_.setBits() - 1));
    }
    return poly_plan_.indexOne(block, 0);
}

template <typename Kind>
void
TwoProbeCache::batchKernel(const std::uint64_t *addrs, std::size_t n,
                           Kind kind)
{
    // The polynomial plan is batch-capable for every registry
    // configuration (one way always packs); the Callback plan the test
    // hook forces is the only exception.
    if (rehash_ == RehashKind::IPoly && !poly_plan_.packedCapable()) {
        for (std::size_t i = 0; i < n; ++i)
            access(addrs[i], kind.isWrite(i));
        return;
    }

    constexpr std::size_t kTile = 256;
    std::uint64_t blocks[kTile];
    std::uint64_t second[kTile];
    const std::uint64_t set_mask = mask(geometry_.setBits());
    const std::uint64_t top_bit = std::uint64_t{1}
                               << (geometry_.setBits() - 1);
    for (std::size_t base = 0; base < n; base += kTile) {
        const std::size_t m = n - base < kTile ? n - base : kTile;
        for (std::size_t i = 0; i < m; ++i)
            blocks[i] = geometry_.blockAddr(addrs[base + i]);
        if (rehash_ == RehashKind::IPoly) {
            poly_plan_.indexPackedBatch(blocks, m, second);
        } else {
            for (std::size_t i = 0; i < m; ++i)
                second[i] = (blocks[i] & set_mask) ^ top_bit;
        }
        for (std::size_t i = 0; i < m; ++i)
            accessIndexed(blocks[i], blocks[i] & set_mask, second[i],
                          kind.isWrite(base + i));
    }
}

void
TwoProbeCache::accessBatch(const std::uint64_t *addrs, std::size_t n,
                           bool is_write)
{
    batchKernel(addrs, n, UniformKind{is_write});
}

void
TwoProbeCache::accessMixed(const std::uint64_t *addrs, const bool *writes,
                           std::size_t n)
{
    batchKernel(addrs, n, MixedKind{writes});
}

AccessResult
TwoProbeCache::access(std::uint64_t addr, bool is_write)
{
    const std::uint64_t block = geometry_.blockAddr(addr);
    return accessIndexed(block, primaryIndex(block),
                         secondaryIndex(block), is_write);
}

// Inlined into both callers: it runs on every miss and second-probe
// hit.
[[gnu::always_inline]] inline std::optional<std::uint64_t>
TwoProbeCache::demote(const Line &displaced, std::uint64_t from)
{
    if (!displaced.valid)
        return std::nullopt;
    const std::uint64_t alt = secondaryIndex(displaced.block);
    std::uint64_t departed = displaced.block;
    if (alt != from) {
        // It lands on its alternative slot, whose occupant (if any)
        // is evicted.
        const Line occupant = lines_[alt];
        lines_[alt] = displaced;
        if (!occupant.valid)
            return std::nullopt;
        departed = occupant.block;
    }
    // Otherwise its alternative *is* the slot it just lost: evicted.
    ++stats_.evictions;
    return geometry_.byteAddr(departed);
}

AccessResult
TwoProbeCache::accessIndexed(std::uint64_t block, std::uint64_t i1,
                             std::uint64_t i2, bool is_write)
{
    if (is_write)
        ++stats_.stores;
    else
        ++stats_.loads;

    if (lines_[i1].valid && lines_[i1].block == block) {
        ++stats_.firstProbeHits;
        AccessResult r;
        r.hit = true;
        return r;
    }
    if (i2 != i1 && lines_[i2].valid && lines_[i2].block == block) {
        // Second-probe hit: promote the block to its conventional slot
        // so the next access hits on the first probe. The displaced
        // occupant moves to *its own* alternative location (with a
        // bit-flip rehash that is exactly i2, a plain swap; with the
        // polynomial rehash each block has a distinct alternative, so
        // a swap would strand the displaced block where no probe looks
        // for it). The hit reports the line that demotion loses.
        ++stats_.secondProbeHits;
        const Line displaced = lines_[i1];
        lines_[i1] = lines_[i2];
        lines_[i2].valid = false;
        AccessResult r;
        r.hit = true;
        r.evictedAddr = demote(displaced, i1);
        return r;
    }

    // Miss.
    if (is_write) {
        ++stats_.storeMisses;
        if (!write_allocate_)
            return AccessResult{};
    } else {
        ++stats_.loadMisses;
    }

    // The incoming block takes the conventional location; its previous
    // occupant is demoted to *that block's* alternative location.
    ++stats_.fills;
    const Line displaced = lines_[i1];
    lines_[i1].valid = true;
    lines_[i1].block = block;
    AccessResult r;
    r.filled = true;
    r.evictedAddr = demote(displaced, i1);
    return r;
}

bool
TwoProbeCache::probe(std::uint64_t addr) const
{
    const std::uint64_t block = geometry_.blockAddr(addr);
    const std::uint64_t i1 = primaryIndex(block);
    const std::uint64_t i2 = secondaryIndex(block);
    return (lines_[i1].valid && lines_[i1].block == block)
        || (lines_[i2].valid && lines_[i2].block == block);
}

void
TwoProbeCache::forEachBlock(
    const std::function<void(std::uint64_t)> &visit) const
{
    for (const Line &line : lines_) {
        if (line.valid)
            visit(geometry_.byteAddr(line.block));
    }
}

bool
TwoProbeCache::invalidate(std::uint64_t addr)
{
    const std::uint64_t block = geometry_.blockAddr(addr);
    for (std::uint64_t idx : {primaryIndex(block), secondaryIndex(block)}) {
        if (lines_[idx].valid && lines_[idx].block == block) {
            lines_[idx].valid = false;
            ++stats_.invalidations;
            return true;
        }
    }
    return false;
}

void
TwoProbeCache::flush()
{
    for (auto &line : lines_)
        line.valid = false;
}

std::string
TwoProbeCache::name() const
{
    return geometry_.toString()
        + (rehash_ == RehashKind::IPoly ? " column-assoc-poly"
                                        : " hash-rehash");
}

double
TwoProbeCache::firstProbeHitFraction() const
{
    const std::uint64_t hits =
        stats_.firstProbeHits + stats_.secondProbeHits;
    return hits ? static_cast<double>(stats_.firstProbeHits)
                  / static_cast<double>(hits)
                : 0.0;
}

} // namespace cac
