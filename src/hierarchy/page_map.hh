/**
 * @file
 * Virtual-to-physical page mapping model.
 *
 * The two-level virtual-real hierarchy indexes L1 with virtual addresses
 * and L2 with physical addresses (section 3.1/3.2). What matters for the
 * hole analysis of section 3.3 is that the two index streams are
 * *uncorrelated*; a deterministic pseudo-random page assignment provides
 * that reproducibly, standing in for a real O/S page allocator.
 */

#ifndef CAC_HIERARCHY_PAGE_MAP_HH
#define CAC_HIERARCHY_PAGE_MAP_HH

#include <cstdint>

#include "common/block_table.hh"
#include "common/rng.hh"

namespace cac
{

/**
 * Demand-populated page table assigning pseudo-random physical frames.
 * Frames are unique (no aliasing) unless an alias is created explicitly
 * with aliasTo().
 */
class PageMap
{
  public:
    /**
     * @param page_bytes page size (power of two; default 4KB, the
     *        "typical minimum" of section 3.1).
     * @param phys_pages number of physical frames to draw from.
     * @param seed determinism knob.
     */
    explicit PageMap(std::uint64_t page_bytes = 4096,
                     std::uint64_t phys_pages = std::uint64_t{1} << 20,
                     std::uint64_t seed = 12345);

    /** Translate a virtual byte address to a physical byte address. */
    std::uint64_t translate(std::uint64_t vaddr);

    /**
     * Map virtual page of @p alias_vaddr to the same frame as the page
     * of @p target_vaddr (creates a virtual alias, section 3.3 cause 2).
     */
    void aliasTo(std::uint64_t alias_vaddr, std::uint64_t target_vaddr);

    std::uint64_t pageBytes() const { return page_bytes_; }

    /** Pages touched so far. */
    std::size_t mappedPages() const { return table_.size(); }

  private:
    std::uint64_t frameFor(std::uint64_t vpage);

    std::uint64_t page_bytes_;
    std::uint64_t page_shift_;
    std::uint64_t phys_pages_;
    Rng rng_;
    BlockTable<std::uint64_t> table_; ///< virtual page -> frame
    BlockSet used_frames_;
};

} // namespace cac

#endif // CAC_HIERARCHY_PAGE_MAP_HH
