#include "cache/fully_assoc.hh"

namespace cac
{

FullyAssocCache::FullyAssocCache(std::uint64_t size_bytes,
                                 std::uint64_t block_bytes,
                                 bool write_allocate)
    : CacheModel(CacheGeometry(size_bytes, block_bytes,
                               static_cast<unsigned>(size_bytes
                                                     / block_bytes))),
      write_allocate_(write_allocate)
{
    map_.reserve(geometry_.numBlocks() * 2);
}

template <typename Kind>
void
FullyAssocCache::batchKernel(const std::uint64_t *addrs, std::size_t n,
                             Kind kind)
{
    for (std::size_t i = 0; i < n; ++i)
        access(addrs[i], kind.isWrite(i));
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
    const std::uint64_t block = geometry_.blockAddr(addr);
    if (is_write)
        ++stats_.stores;
    else
        ++stats_.loads;

    auto it = map_.find(block);
    if (it != map_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second); // move to MRU
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
    if (lru_.size() == geometry_.numBlocks()) {
        const std::uint64_t victim = lru_.back();
        lru_.pop_back();
        map_.erase(victim);
        ++stats_.evictions;
        r.evictedAddr = geometry_.byteAddr(victim);
    }
    lru_.push_front(block);
    map_[block] = lru_.begin();
    return r;
}

bool
FullyAssocCache::probe(std::uint64_t addr) const
{
    return map_.count(geometry_.blockAddr(addr)) != 0;
}

bool
FullyAssocCache::invalidate(std::uint64_t addr)
{
    auto it = map_.find(geometry_.blockAddr(addr));
    if (it == map_.end())
        return false;
    lru_.erase(it->second);
    map_.erase(it);
    ++stats_.invalidations;
    return true;
}

void
FullyAssocCache::flush()
{
    lru_.clear();
    map_.clear();
}

std::string
FullyAssocCache::name() const
{
    return geometry_.toString() + " fully-assoc";
}

} // namespace cac
