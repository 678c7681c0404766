#include "common/huge_pages.hh"

#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace cac
{

void
adviseHugePages(void *data, std::size_t bytes)
{
#if defined(__linux__) && defined(MADV_HUGEPAGE)
    constexpr std::uintptr_t kHuge = std::uintptr_t{2} << 20;
    const auto begin = reinterpret_cast<std::uintptr_t>(data);
    const std::uintptr_t lo = (begin + kHuge - 1) & ~(kHuge - 1);
    const std::uintptr_t hi = (begin + bytes) & ~(kHuge - 1);
    if (hi > lo)
        (void)madvise(reinterpret_cast<void *>(lo), hi - lo, MADV_HUGEPAGE);
#else
    (void)data;
    (void)bytes;
#endif
}

} // namespace cac
