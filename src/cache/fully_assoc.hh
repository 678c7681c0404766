/**
 * @file
 * Fully-associative LRU cache.
 *
 * The paper (via [10]) uses a fully-associative cache as the
 * conflict-free reference point: an 8KB fully-associative cache has the
 * capacity+compulsory miss ratio that I-Poly indexing approaches.
 * Implemented with a hash map + intrusive LRU list so large capacities
 * stay O(1) per access.
 */

#ifndef CAC_CACHE_FULLY_ASSOC_HH
#define CAC_CACHE_FULLY_ASSOC_HH

#include <list>
#include <unordered_map>

#include "cache/cache_model.hh"

namespace cac
{

/** Fully-associative cache with true-LRU replacement. */
class FullyAssocCache final : public CacheModel
{
  public:
    /**
     * @param size_bytes capacity.
     * @param block_bytes line size.
     * @param write_allocate allocate on write misses?
     */
    FullyAssocCache(std::uint64_t size_bytes, std::uint64_t block_bytes,
                    bool write_allocate = true);

    AccessResult access(std::uint64_t addr, bool is_write) override;
    void accessBatch(const std::uint64_t *addrs, std::size_t n,
                     bool is_write) override;
    void accessMixed(const std::uint64_t *addrs, const bool *writes,
                     std::size_t n) override;
    bool probe(std::uint64_t addr) const override;
    bool invalidate(std::uint64_t addr) override;
    void flush() override;
    std::string name() const override;

  private:
    /** accessBatch()/accessMixed() kernel, templated on the kind source. */
    template <typename Kind>
    void batchKernel(const std::uint64_t *addrs, std::size_t n,
                     Kind kind);

    bool write_allocate_;
    /** MRU at front, LRU at back; values are block addresses. */
    std::list<std::uint64_t> lru_;
    std::unordered_map<std::uint64_t,
                       std::list<std::uint64_t>::iterator> map_;
};

} // namespace cac

#endif // CAC_CACHE_FULLY_ASSOC_HH
