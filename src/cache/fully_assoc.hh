/**
 * @file
 * Fully-associative LRU cache.
 *
 * The paper (via [10]) uses a fully-associative cache as the
 * conflict-free reference point: an 8KB fully-associative cache has the
 * capacity+compulsory miss ratio that I-Poly indexing approaches.
 *
 * Lines live in a fixed array of slots, one per block of capacity,
 * threaded by slot index into one LRU list; a flat BlockTable maps each
 * resident block to its slot, and slots that invalidate() empties wait
 * on a free stack. So every access is O(1) and a miss allocates
 * nothing.
 */

#ifndef CAC_CACHE_FULLY_ASSOC_HH
#define CAC_CACHE_FULLY_ASSOC_HH

#include <vector>

#include "cache/cache_model.hh"
#include "common/block_table.hh"

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
    void forEachBlock(
        const std::function<void(std::uint64_t)> &visit) const override;
    bool invalidate(std::uint64_t addr) override;
    void flush() override;
    std::string name() const override;

  private:
    /** No slot: the end of the LRU list. */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /** One line: its block and its LRU-list neighbours. */
    struct Slot
    {
        std::uint64_t block = 0;
        std::uint32_t prev = kNil; ///< toward the MRU end
        std::uint32_t next = kNil; ///< toward the LRU end
    };

    /** One access: the body of access() and of the batch kernel. */
    AccessResult step(std::uint64_t addr, bool is_write);

    /** accessBatch()/accessMixed() kernel, templated on the kind source. */
    template <typename Kind>
    void batchKernel(const std::uint64_t *addrs, std::size_t n,
                     Kind kind);

    /** Take slot @p s out of the LRU list. */
    void unlink(std::uint32_t s);

    /** Put slot @p s at the MRU end of the LRU list. */
    void pushFront(std::uint32_t s);

    bool write_allocate_;
    std::vector<Slot> slots_; ///< one per block of capacity
    std::uint32_t mru_ = kNil;
    std::uint32_t lru_ = kNil;
    std::uint32_t unused_ = 0; ///< slots [unused_, end) never held a line
    std::vector<std::uint32_t> free_; ///< slots invalidate() emptied
    BlockTable<std::uint32_t> map_;   ///< resident block -> its slot
};

} // namespace cac

#endif // CAC_CACHE_FULLY_ASSOC_HH
