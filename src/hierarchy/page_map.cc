#include "hierarchy/page_map.hh"

#include "common/bits.hh"
#include "common/logging.hh"

namespace cac
{

PageMap::PageMap(std::uint64_t page_bytes, std::uint64_t phys_pages,
                 std::uint64_t seed)
    : page_bytes_(page_bytes), phys_pages_(phys_pages), rng_(seed)
{
    CAC_ASSERT(isPowerOf2(page_bytes));
    // A one-byte page would let a page number reach the memo's (and
    // the table's) reserved empty key.
    CAC_ASSERT(page_bytes > 1);
    CAC_ASSERT(phys_pages >= 1);
    page_shift_ = floorLog2(page_bytes);
}

std::uint64_t
PageMap::frameFor(std::uint64_t vpage)
{
    if (const std::uint64_t *frame = table_.find(vpage))
        return *frame;

    // Draw unused frames; with 2^20 frames and workloads touching a few
    // thousand pages, collisions are rare enough that rejection
    // sampling terminates immediately in practice.
    std::uint64_t frame = 0;
    do {
        frame = rng_.nextBelow(phys_pages_);
    } while (vpages_.find(frame));
    vpages_.insert(frame).first = vpage;
    table_.insert(vpage).first = frame;
    return frame;
}

} // namespace cac
