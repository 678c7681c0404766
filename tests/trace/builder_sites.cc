#include "builder_sites.hh"

namespace cac::test
{

void
emitSecondTuSite(TraceBuilder &b)
{
    b.load(0x2000, reg::r(2));
}

const char *
emitHeaderSiteFromSecondTu(TraceBuilder &b)
{
    return emitHeaderSite(b);
}

namespace
{

// The #line directives below pin sites' file names and lines; they
// stay at the end of this file so they rename nothing else.
void pinnedSiteA(TraceBuilder &b, unsigned i);
void pinnedSiteB(TraceBuilder &b, unsigned i);

} // anonymous namespace

void
emitKeyCoverage(TraceBuilder &b)
{
    for (unsigned i = 0; i < 8; ++i) {
        // Two sites on one line, told apart by their columns alone.
        b.load(0x100 + 8 * i, reg::r(1)); b.load(0x200 + 8 * i, reg::r(2));
        for (unsigned a = 0; a < 3; ++a)
            b.store(0x1000 * (a + 1) + 8 * i, reg::r(a), reg::none, a);
        pinnedSiteA(b, i);
        pinnedSiteB(b, i);
        b.branch(i + 1 != 8, reg::r(30));
    }
}

namespace
{

void
pinnedSiteA(TraceBuilder &b, unsigned i)
{
#line 9000 "pinned_site_a.cc"
    b.alu(OpClass::IntAlu, reg::r(4), reg::r(i));
}

void
pinnedSiteB(TraceBuilder &b, unsigned i)
{
#line 9000 "pinned_site_b.cc"
    b.alu(OpClass::IntAlu, reg::r(4), reg::r(i));
}

} // anonymous namespace

std::source_location
reservedKeySite()
{
    return
#line 171499 "reserved_key_1448810.cc"
std::source_location::current();
}

} // namespace cac::test
