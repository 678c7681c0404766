/**
 * @file
 * Virtual-to-physical page mapping model.
 *
 * The two-level virtual-real hierarchy indexes L1 with virtual addresses
 * and L2 with physical addresses (section 3.1/3.2). What matters for the
 * hole analysis of section 3.3 is that the two index streams are
 * *uncorrelated*; a deterministic pseudo-random page assignment provides
 * that reproducibly, standing in for a real O/S page allocator.
 *
 * translate() runs on every miss of the virtual-real hierarchy, often
 * twice (the missing block and the L1 victim), so it first consults a
 * small direct-mapped memo of recent translations, a software TLB,
 * kept inline in the object. A translation never changes once drawn,
 * so the memo is exact.
 *
 * Translation is injective: no frame is handed out twice, so no two
 * virtual pages alias. The map keeps the inverse (frame -> virtual
 * page) in the table that enforces this, and untranslate() reads it:
 * the coherent system finds the one L1 copy of an L2 victim by inverse
 * translation instead of keeping reverse maps of its own.
 */

#ifndef CAC_HIERARCHY_PAGE_MAP_HH
#define CAC_HIERARCHY_PAGE_MAP_HH

#include <array>
#include <cstdint>
#include <optional>

#include "common/block_table.hh"
#include "common/rng.hh"

namespace cac
{

/**
 * Demand-populated page table assigning pseudo-random physical frames,
 * each frame to one virtual page only.
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
    std::uint64_t translate(std::uint64_t vaddr)
    {
        const std::uint64_t vpage = vaddr >> page_shift_;
        MemoSlot &slot = memo_[memoSlot(vpage)];
        if (slot.vpage != vpage) {
            slot.frame = frameFor(vpage);
            slot.vpage = vpage;
        }
        return (slot.frame << page_shift_) | (vaddr & (page_bytes_ - 1));
    }

    /**
     * The virtual byte address that translates to @p paddr, whose
     * frame must have been handed out: the inverse of translate().
     */
    std::uint64_t untranslate(std::uint64_t paddr) const
    {
        const std::uint64_t *vpage = vpages_.find(paddr >> page_shift_);
        CAC_ASSERT(vpage != nullptr);
        return (*vpage << page_shift_) | (paddr & (page_bytes_ - 1));
    }

    /**
     * translate() of an address whose page is already mapped, read
     * from the page table alone (no memo update, no frame drawn);
     * nullopt when the page is unmapped. For const invariant checks.
     */
    std::optional<std::uint64_t> mapped(std::uint64_t vaddr) const
    {
        const std::uint64_t *frame = table_.find(vaddr >> page_shift_);
        if (frame == nullptr)
            return std::nullopt;
        return (*frame << page_shift_) | (vaddr & (page_bytes_ - 1));
    }

    std::uint64_t pageBytes() const { return page_bytes_; }

    /** Pages touched so far. */
    std::size_t mappedPages() const { return table_.size(); }

  private:
    /**
     * One memoized translation; the table's reserved empty key as
     * vpage marks an empty slot.
     */
    struct MemoSlot
    {
        std::uint64_t vpage = BlockTable<std::uint64_t>::kEmptyKey;
        std::uint64_t frame = 0;
    };

    static constexpr unsigned kMemoBits = 8;

    /**
     * Memo slot of @p vpage: a Fibonacci hash, so pages a power of two
     * apart (the same offset in two ASID windows) do not share a slot.
     */
    static std::size_t memoSlot(std::uint64_t vpage)
    {
        return static_cast<std::size_t>(
            (vpage * 0x9E3779B97F4A7C15ull) >> (64 - kMemoBits));
    }

    std::uint64_t frameFor(std::uint64_t vpage);

    std::uint64_t page_bytes_;
    std::uint64_t page_shift_;
    /** Recent translations, a cache of table_ (see the file comment). */
    std::array<MemoSlot, std::size_t{1} << kMemoBits> memo_{};
    std::uint64_t phys_pages_;
    Rng rng_;
    BlockTable<std::uint64_t> table_;  ///< virtual page -> frame
    BlockTable<std::uint64_t> vpages_; ///< frame -> virtual page
};

} // namespace cac

#endif // CAC_HIERARCHY_PAGE_MAP_HH
