#include "cache/fully_assoc.hh"

namespace cac
{

FullyAssocCache::FullyAssocCache(std::uint64_t size_bytes,
                                 std::uint64_t block_bytes,
                                 bool write_allocate)
    : CacheModel(CacheGeometry(size_bytes, block_bytes,
                               static_cast<unsigned>(size_bytes
                                                     / block_bytes))),
      write_allocate_(write_allocate),
      slots_(geometry_.numBlocks())
{
    CAC_ASSERT(geometry_.numBlocks() < kNil);
    map_.reserve(geometry_.numBlocks());
}

void
FullyAssocCache::unlink(std::uint32_t s)
{
    const Slot &slot = slots_[s];
    (slot.prev == kNil ? mru_ : slots_[slot.prev].next) = slot.next;
    (slot.next == kNil ? lru_ : slots_[slot.next].prev) = slot.prev;
}

void
FullyAssocCache::pushFront(std::uint32_t s)
{
    Slot &slot = slots_[s];
    slot.prev = kNil;
    slot.next = mru_;
    (mru_ == kNil ? lru_ : slots_[mru_].prev) = s;
    mru_ = s;
}

// Inlined into access() and the batch kernel: out of line, every
// access pays a call the kernel's loop cannot overlap.
[[gnu::always_inline]] inline AccessResult
FullyAssocCache::step(std::uint64_t addr, bool is_write)
{
    const std::uint64_t block = geometry_.blockAddr(addr);
    if (is_write)
        ++stats_.stores;
    else
        ++stats_.loads;

    if (const std::uint32_t *s = map_.find(block)) {
        const std::uint32_t hit = *s;
        unlink(hit);
        pushFront(hit);
        AccessResult r;
        r.hit = true;
        return r;
    }

    if (is_write) {
        ++stats_.storeMisses;
        if (!write_allocate_)
            return AccessResult{};
    } else {
        ++stats_.loadMisses;
    }

    AccessResult r;
    r.filled = true;
    ++stats_.fills;
    std::uint32_t s;
    if (map_.size() == geometry_.numBlocks()) {
        s = lru_;
        unlink(s);
        map_.erase(slots_[s].block);
        ++stats_.evictions;
        r.evictedAddr = geometry_.byteAddr(slots_[s].block);
    } else if (!free_.empty()) {
        s = free_.back();
        free_.pop_back();
    } else {
        s = unused_++;
    }
    slots_[s].block = block;
    pushFront(s);
    map_.insert(block).first = s;
    return r;
}

template <typename Kind>
void
FullyAssocCache::batchKernel(const std::uint64_t *addrs, std::size_t n,
                             Kind kind)
{
    for (std::size_t i = 0; i < n; ++i)
        step(addrs[i], kind.isWrite(i));
}

void
FullyAssocCache::accessBatch(const std::uint64_t *addrs, std::size_t n,
                             bool is_write)
{
    batchKernel(addrs, n, UniformKind{is_write});
}

void
FullyAssocCache::accessMixed(const std::uint64_t *addrs, const bool *writes,
                             std::size_t n)
{
    batchKernel(addrs, n, MixedKind{writes});
}

AccessResult
FullyAssocCache::access(std::uint64_t addr, bool is_write)
{
    return step(addr, is_write);
}

bool
FullyAssocCache::probe(std::uint64_t addr) const
{
    return map_.find(geometry_.blockAddr(addr)) != nullptr;
}

void
FullyAssocCache::forEachBlock(
    const std::function<void(std::uint64_t)> &visit) const
{
    map_.forEach([&](std::uint64_t block, std::uint32_t) {
        visit(geometry_.byteAddr(block));
    });
}

bool
FullyAssocCache::invalidate(std::uint64_t addr)
{
    const std::uint64_t block = geometry_.blockAddr(addr);
    const std::uint32_t *s = map_.find(block);
    if (s == nullptr)
        return false;
    const std::uint32_t freed = *s;
    unlink(freed);
    map_.erase(block);
    free_.push_back(freed);
    ++stats_.invalidations;
    return true;
}

void
FullyAssocCache::flush()
{
    map_.clear();
    free_.clear();
    mru_ = lru_ = kNil;
    unused_ = 0;
}

std::string
FullyAssocCache::name() const
{
    return geometry_.toString() + " fully-assoc";
}

} // namespace cac
