#include "cache/victim.hh"

#include <limits>

#include "common/logging.hh"
#include "index/index_fn.hh"

namespace cac
{

VictimCache::VictimCache(const CacheGeometry &geometry,
                         unsigned victim_blocks, bool write_allocate)
    : CacheModel(geometry),
      main_(geometry,
            std::make_unique<ModuloIndex>(geometry.setBits(),
                                          geometry.ways()),
            ReplKind::Lru, WriteAllocate::Yes),
      buffer_(victim_blocks),
      write_allocate_(write_allocate)
{
    CAC_ASSERT(victim_blocks >= 1);
}

VictimCache::VictimLine *
VictimCache::findVictim(std::uint64_t block)
{
    for (auto &line : buffer_) {
        if (line.valid && line.block == block)
            return &line;
    }
    return nullptr;
}

const VictimCache::VictimLine *
VictimCache::findVictim(std::uint64_t block) const
{
    for (const auto &line : buffer_) {
        if (line.valid && line.block == block)
            return &line;
    }
    return nullptr;
}

std::optional<std::uint64_t>
VictimCache::insertVictim(std::uint64_t block)
{
    VictimLine *slot = nullptr;
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (auto &line : buffer_) {
        if (!line.valid) {
            slot = &line;
            break;
        }
        if (line.lastTouch < oldest) {
            oldest = line.lastTouch;
            slot = &line;
        }
    }
    std::optional<std::uint64_t> dropped;
    if (slot->valid)
        dropped = slot->block;
    slot->valid = true;
    slot->block = block;
    slot->lastTouch = tick_;
    return dropped;
}

/** Settles each main-array miss of a batch, at its access's tick. */
struct VictimCache::MainMisses
{
    VictimCache &cache;
    const std::uint64_t *addrs;
    std::uint64_t base_tick; ///< tick_ before the batch

    void miss(std::size_t i, bool is_write, const AccessResult &fill)
    {
        cache.tick_ = base_tick + i + 1;
        cache.settleMainMiss(cache.geometry_.blockAddr(addrs[i]), is_write,
                             fill);
    }
};

template <typename Kind>
void
VictimCache::batchKernel(const std::uint64_t *addrs, std::size_t n,
                         Kind kind)
{
    // Write-no-allocate replays access by access (see the file comment).
    if (!write_allocate_) {
        for (std::size_t i = 0; i < n; ++i)
            access(addrs[i], kind.isWrite(i));
        return;
    }
    const std::size_t stores = kind.writesIn(0, n);
    stats_.stores += stores;
    stats_.loads += n - stores;
    const std::uint64_t base_tick = tick_;
    main_.batchKernel(addrs, n, kind, MainMisses{*this, addrs, base_tick});
    tick_ = base_tick + n;
}

void
VictimCache::accessBatch(const std::uint64_t *addrs, std::size_t n,
                         bool is_write)
{
    batchKernel(addrs, n, UniformKind{is_write});
}

void
VictimCache::accessMixed(const std::uint64_t *addrs, const bool *writes,
                         std::size_t n)
{
    batchKernel(addrs, n, MixedKind{writes});
}

AccessResult
VictimCache::access(std::uint64_t addr, bool is_write)
{
    ++tick_;
    const std::uint64_t block = geometry_.blockAddr(addr);
    if (is_write)
        ++stats_.stores;
    else
        ++stats_.loads;

    // Main-cache hit: one index evaluation and tag scan, which also
    // keeps its LRU state warm; a miss leaves main_ untouched.
    if (AccessResult r; main_.tryAccess(addr, is_write, false, r))
        return r;

    // Write-no-allocate: a store missing both arrays fills nothing.
    if (is_write && !write_allocate_ && findVictim(block) == nullptr) {
        ++stats_.storeMisses;
        return AccessResult{};
    }
    return settleMainMiss(block, is_write, main_.fill(addr));
}

AccessResult
VictimCache::settleMainMiss(std::uint64_t block, bool is_write,
                            const AccessResult &fill)
{
    AccessResult r;
    if (VictimLine *vline = findVictim(block)) {
        // Victim hit: swap the line back into the main cache; the block
        // the main cache evicts takes its place in the buffer. The
        // freed slot leaves room, so nothing departs.
        ++victim_hits_;
        vline->valid = false;
        if (fill.evictedAddr) {
            const auto dropped =
                insertVictim(geometry_.blockAddr(*fill.evictedAddr));
            CAC_ASSERT(!dropped);
        }
        r.hit = true;
        return r;
    }

    // Genuine miss.
    if (is_write)
        ++stats_.storeMisses;
    else
        ++stats_.loadMisses;
    ++stats_.fills;
    r.filled = true;
    if (fill.evictedAddr) {
        // The main-cache victim moves into the buffer and stays
        // resident; only the block a full buffer drops departs.
        ++stats_.evictions;
        if (const auto dropped =
                insertVictim(geometry_.blockAddr(*fill.evictedAddr)))
            r.evictedAddr = geometry_.byteAddr(*dropped);
    }
    return r;
}

bool
VictimCache::probe(std::uint64_t addr) const
{
    return main_.probe(addr)
        || findVictim(geometry_.blockAddr(addr)) != nullptr;
}

void
VictimCache::forEachBlock(
    const std::function<void(std::uint64_t)> &visit) const
{
    main_.forEachBlock(visit);
    for (const VictimLine &line : buffer_) {
        if (line.valid)
            visit(geometry_.byteAddr(line.block));
    }
}

bool
VictimCache::invalidate(std::uint64_t addr)
{
    bool any = main_.invalidate(addr);
    if (VictimLine *vline = findVictim(geometry_.blockAddr(addr))) {
        vline->valid = false;
        any = true;
    }
    if (any)
        ++stats_.invalidations;
    return any;
}

void
VictimCache::flush()
{
    main_.flush();
    for (auto &line : buffer_)
        line.valid = false;
}

std::string
VictimCache::name() const
{
    return geometry_.toString() + " victim+"
        + std::to_string(buffer_.size());
}

} // namespace cac
