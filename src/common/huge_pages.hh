/**
 * @file
 * adviseHugePages(): ask for transparent huge pages under a large,
 * freshly reserved buffer (a whole composed trace, a proxy program).
 * Filling such a buffer is dominated by its first-touch page faults;
 * one 2 MiB fault instead of 512 4 KiB ones makes composing a mix
 * about 1.5x faster where the kernel's THP mode is "madvise". Nothing
 * about the buffer's contents changes.
 */

#ifndef CAC_COMMON_HUGE_PAGES_HH
#define CAC_COMMON_HUGE_PAGES_HH

#include <cstddef>

namespace cac
{

/**
 * Advise transparent huge pages over the 2 MiB-aligned interior of
 * [@p data, @p data + @p bytes): madvise(MADV_HUGEPAGE) on Linux, a
 * no-op elsewhere. A refusal by the kernel is ignored. Call it right
 * after reserving, before the buffer is written, and cover only the
 * bytes that will certainly be written: a huge page is resident whole
 * once touched, so advising spare capacity that stays unwritten would
 * cost up to 2 MiB of RSS.
 */
void adviseHugePages(void *data, std::size_t bytes);

} // namespace cac

#endif // CAC_COMMON_HUGE_PAGES_HH
