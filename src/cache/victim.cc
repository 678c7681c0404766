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

template <typename Kind>
void
VictimCache::batchKernel(const std::uint64_t *addrs, std::size_t n,
                         Kind kind)
{
    for (std::size_t i = 0; i < n; ++i)
        access(addrs[i], kind.isWrite(i));
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

    if (VictimLine *vline = findVictim(block)) {
        // Victim hit: swap the line back into the main cache; the block
        // the main cache evicts takes its place in the buffer. The
        // freed slot leaves room, so nothing departs.
        ++victim_hits_;
        vline->valid = false;
        AccessResult fill = main_.fill(addr);
        if (fill.evictedAddr) {
            const auto dropped =
                insertVictim(geometry_.blockAddr(*fill.evictedAddr));
            CAC_ASSERT(!dropped);
        }
        AccessResult r;
        r.hit = true;
        return r;
    }

    // Genuine miss.
    if (is_write) {
        ++stats_.storeMisses;
        if (!write_allocate_)
            return AccessResult{};
    } else {
        ++stats_.loadMisses;
    }
    ++stats_.fills;
    AccessResult fill = main_.fill(addr);
    AccessResult r;
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
