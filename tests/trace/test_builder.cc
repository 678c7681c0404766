/**
 * @file
 * Tests for the trace builder and its synthetic-PC assignment.
 */

#include <functional>
#include <set>
#include <string_view>

#include <gtest/gtest.h>

#include "builder_sites.hh"
#include "trace/builder.hh"

namespace cac
{
namespace
{

TEST(TraceBuilder, EmitsRecords)
{
    Trace t;
    TraceBuilder b(t);
    b.load(0x1000, reg::r(1), reg::r(2));
    b.store(0x2000, reg::r(1), reg::r(2));
    b.alu(OpClass::FpMul, reg::f(0), reg::f(1), reg::f(2));
    b.branch(true, reg::r(3));
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t[0].op, OpClass::Load);
    EXPECT_EQ(t[0].addr, 0x1000u);
    EXPECT_EQ(t[0].dst, reg::r(1));
    EXPECT_EQ(t[1].op, OpClass::Store);
    EXPECT_EQ(t[2].op, OpClass::FpMul);
    EXPECT_EQ(t[3].op, OpClass::Branch);
    EXPECT_TRUE(t[3].taken);
    EXPECT_EQ(b.size(), 4u);
}

TEST(TraceBuilder, SameCallSiteSharesPc)
{
    Trace t;
    TraceBuilder b(t);
    for (int i = 0; i < 10; ++i)
        b.load(0x1000 + 8 * i, reg::r(1)); // one static instruction
    std::set<std::uint32_t> pcs;
    for (const auto &rec : t)
        pcs.insert(rec.pc);
    EXPECT_EQ(pcs.size(), 1u);
    EXPECT_EQ(b.staticInstructions(), 1u);
}

TEST(TraceBuilder, DifferentCallSitesGetDistinctPcs)
{
    Trace t;
    TraceBuilder b(t);
    b.load(0x1000, reg::r(1));
    b.load(0x2000, reg::r(2));
    EXPECT_NE(t[0].pc, t[1].pc);
    EXPECT_EQ(b.staticInstructions(), 2u);
}

TEST(TraceBuilder, SaltSeparatesLoopOverArrays)
{
    // One source line looping over arrays must produce one PC per
    // array so the address predictor sees clean per-PC strides.
    Trace t;
    TraceBuilder b(t);
    for (int i = 0; i < 4; ++i)
        for (unsigned a = 0; a < 3; ++a)
            b.load(a * 0x10000 + i * 8, reg::r(1), reg::none, a);
    std::set<std::uint32_t> pcs;
    for (const auto &rec : t)
        pcs.insert(rec.pc);
    EXPECT_EQ(pcs.size(), 3u);
}

TEST(TraceBuilder, PcsAreFourByteSpaced)
{
    Trace t;
    TraceBuilder b(t);
    b.alu(OpClass::IntAlu, reg::r(1));
    b.alu(OpClass::IntAlu, reg::r(2));
    b.alu(OpClass::IntAlu, reg::r(3));
    std::set<std::uint32_t> pcs;
    for (const auto &rec : t)
        pcs.insert(rec.pc);
    for (auto pc : pcs)
        EXPECT_EQ(pc % 4, 0u);
}

TEST(TraceBuilder, SizeCountsOnlyItsOwnRecords)
{
    // A builder appending to a non-empty trace counts what it emitted,
    // so loops of the form `while (b.size() < target)` build the same
    // stream wherever it lands.
    Trace t(5);
    TraceBuilder b(t);
    EXPECT_EQ(b.size(), 0u);
    b.load(0x1000, reg::r(1));
    b.store(0x2000, reg::r(1));
    EXPECT_EQ(b.size(), 2u);
    ASSERT_EQ(t.size(), 7u);
    EXPECT_EQ(t[5].op, OpClass::Load);
    EXPECT_EQ(t[6].op, OpClass::Store);
    EXPECT_EQ(t[5].pc, 0u); // a fresh builder numbers PCs from zero
}

TEST(TraceBuilder, NumbersSitesAcrossTranslationUnitsInFirstSeenOrder)
{
    // Site A lives in this file, site B in builder_sites.cc: every
    // switch between them changes the file-name pointer the builder
    // sees, and the numbering must still be first-seen.
    Trace t;
    TraceBuilder b(t);
    for (int i = 0; i < 3; ++i) {
        b.load(0x1000, reg::r(1)); // site A
        test::emitSecondTuSite(b); // site B
    }
    ASSERT_EQ(t.size(), 6u);
    for (std::size_t i = 0; i < t.size(); i += 2) {
        EXPECT_EQ(t[i].pc, 0u) << i;
        EXPECT_EQ(t[i + 1].pc, 4u) << i;
    }
    EXPECT_EQ(b.staticInstructions(), 2u);
}

TEST(TraceBuilder, HeaderSiteFromTwoTranslationUnitsSharesOnePc)
{
    // Each TU has its own copy of the header's site. Their file names
    // are two pointers to equal strings in an unoptimized build and
    // usually one merged pointer in an optimized one; either way the
    // site keeps one PC.
    Trace t;
    TraceBuilder b(t);
    const char *here = test::emitHeaderSite(b);
    test::emitSecondTuSite(b);
    const char *there = test::emitHeaderSiteFromSecondTu(b);
    EXPECT_STREQ(here, there);
    ASSERT_EQ(t.size(), 3u);
    EXPECT_EQ(t[0].pc, 0u);
    EXPECT_EQ(t[1].pc, 4u);
    EXPECT_EQ(t[2].pc, 0u);
    EXPECT_EQ(b.staticInstructions(), 2u);
}

TEST(TraceBuilder, ReservedTableKeyGetsItsOwnPc)
{
    // The PC table cannot store key ~0, so that one key lives in a
    // side slot: it must neither assert nor break first-seen numbering.
    const std::source_location site = test::reservedKeySite();
    const std::uint64_t unsalted =
        std::hash<std::string_view>{}(site.file_name())
        ^ (std::uint64_t{site.line()} << 20)
        ^ (std::uint64_t{site.column()} << 8);
    if ((~unsalted & ((std::uint64_t{1} << 40) - 1)) != 0)
        GTEST_SKIP() << "site not pinned for this toolchain";
    const auto salt = static_cast<unsigned>(~unsalted >> 40);
    Trace t;
    TraceBuilder b(t);
    b.load(0x10, reg::r(1));
    b.load(0x20, reg::r(2), reg::none, salt, site);
    b.load(0x30, reg::r(3));
    b.load(0x40, reg::r(2), reg::none, salt, site);
    ASSERT_EQ(t.size(), 4u);
    EXPECT_EQ(t[0].pc, 0u);
    EXPECT_EQ(t[1].pc, 4u);
    EXPECT_EQ(t[2].pc, 8u);
    EXPECT_EQ(t[3].pc, 4u);
    EXPECT_EQ(b.staticInstructions(), 3u);
}

TEST(TraceBuilder, RegisterHelpers)
{
    EXPECT_EQ(reg::r(0), 0);
    EXPECT_EQ(reg::r(31), 31);
    EXPECT_EQ(reg::f(0), 32);
    EXPECT_EQ(reg::f(31), 63);
    EXPECT_EQ(reg::none, -1);
    // Wrap instead of overflowing the architectural file.
    EXPECT_EQ(reg::r(32), 0);
    EXPECT_EQ(reg::f(32), 32);
}

TEST(OpClass, Names)
{
    EXPECT_EQ(opClassName(OpClass::Load), "load");
    EXPECT_EQ(opClassName(OpClass::FpSqrt), "fp_sqrt");
}

TEST(OpClass, Predicates)
{
    EXPECT_TRUE(isMemOp(OpClass::Load));
    EXPECT_TRUE(isMemOp(OpClass::Store));
    EXPECT_FALSE(isMemOp(OpClass::Branch));
    EXPECT_TRUE(isFpOp(OpClass::FpDiv));
    EXPECT_FALSE(isFpOp(OpClass::IntMul));
}

} // anonymous namespace
} // namespace cac
