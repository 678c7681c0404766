/**
 * @file
 * Emit sites spread over more than one translation unit, for the
 * TraceBuilder PC-numbering tests and the synthesis digest golden.
 * The call sites live in builder_sites.cc (a second TU) and in this
 * header, so one builder can be driven across files.
 */

#ifndef CAC_TESTS_TRACE_BUILDER_SITES_HH
#define CAC_TESTS_TRACE_BUILDER_SITES_HH

#include <source_location>

#include "trace/builder.hh"

namespace cac::test
{

/**
 * A call site in a header. Internal linkage gives every TU that
 * includes this header its own copy, and with it its own pointer to
 * the file name unless the linker merges equal strings. Returns the
 * file name the builder was handed.
 */
static inline const char *
emitHeaderSite(TraceBuilder &b)
{
    const std::source_location here = std::source_location::current();
    b.load(0x3000, reg::r(3), reg::none, 0, here);
    return here.file_name();
}

/** One load from a call site in builder_sites.cc. */
void emitSecondTuSite(TraceBuilder &b);

/** emitHeaderSite() reached from builder_sites.cc. */
const char *emitHeaderSiteFromSecondTu(TraceBuilder &b);

/**
 * A fixed stream whose PC numbering depends on every part of a call
 * site's key: two emits on one source line (column), one line looped
 * over arrays (salt), and two sites with equal line, column and salt
 * in files of different names (the file hash).
 */
void emitKeyCoverage(TraceBuilder &b);

/**
 * A call site placed (by file name, line and column) so that its key
 * without salt, hash(file) ^ line<<20 ^ column<<8, has bits 0..39 all
 * set under libstdc++'s string hash and GCC's column numbering: the
 * salt ~key>>40 then makes the whole key ~0, the one key BlockTable
 * reserves.
 */
std::source_location reservedKeySite();

} // namespace cac::test

#endif // CAC_TESTS_TRACE_BUILDER_SITES_HH
