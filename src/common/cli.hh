/**
 * @file
 * Strict numeric command-line flags, shared by every tool: a value is
 * one whole token of digits (decimal, or 0x-hex / 0-octal as
 * strtoull's base 0 reads them) inside the flag's range. Anything else
 * — empty, blank, signed, "8k", out of range — prints "bad value '<v>'
 * for <flag> (want an integer in [lo, hi])" and exits 1 before the
 * tool does any work.
 */

#ifndef CAC_COMMON_CLI_HH
#define CAC_COMMON_CLI_HH

#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace cac
{

/** The value @p text of numeric flag @p flag, as a @p T in [lo, hi]. */
template <typename T = std::uint64_t>
T
countFlag(const char *flag, const char *text, std::uint64_t lo = 0,
          std::uint64_t hi = std::numeric_limits<T>::max())
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 0);
    // strtoull skips blanks and negates a leading '-': demand a digit.
    if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0'
        || errno == ERANGE || value < lo || value > hi) {
        std::fprintf(stderr,
                     "bad value '%s' for %s (want an integer in "
                     "[%" PRIu64 ", %" PRIu64 "])\n",
                     text, flag, lo, hi);
        std::exit(1);
    }
    return static_cast<T>(value);
}

} // namespace cac

#endif // CAC_COMMON_CLI_HH
