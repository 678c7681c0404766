/**
 * @file
 * Tests for the virtual-to-physical page mapping model.
 */

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "hierarchy/page_map.hh"

namespace cac
{
namespace
{

TEST(PageMap, PreservesPageOffset)
{
    PageMap pm(4096);
    for (std::uint64_t v : {0x1234ull, 0xABCDEull, 0x7FFF123ull}) {
        const std::uint64_t p = pm.translate(v);
        EXPECT_EQ(p & 4095, v & 4095);
    }
}

TEST(PageMap, TranslationIsStable)
{
    PageMap pm;
    const std::uint64_t p1 = pm.translate(0x10000);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(pm.translate(0x10000 + i), p1 + i);
}

TEST(PageMap, DistinctPagesGetDistinctFrames)
{
    PageMap pm(4096, 1 << 20, 42);
    std::set<std::uint64_t> frames;
    for (std::uint64_t page = 0; page < 2000; ++page)
        frames.insert(pm.translate(page * 4096) >> 12);
    EXPECT_EQ(frames.size(), 2000u);
    EXPECT_EQ(pm.mappedPages(), 2000u);
}

TEST(PageMap, DeterministicPerSeed)
{
    PageMap a(4096, 1 << 20, 7), b(4096, 1 << 20, 7);
    for (std::uint64_t page = 0; page < 100; ++page)
        EXPECT_EQ(a.translate(page << 12), b.translate(page << 12));
}

TEST(PageMap, SeedsChangeTheMap)
{
    PageMap a(4096, 1 << 20, 1), b(4096, 1 << 20, 2);
    int same = 0;
    for (std::uint64_t page = 0; page < 100; ++page)
        same += a.translate(page << 12) == b.translate(page << 12);
    EXPECT_LT(same, 5);
}

TEST(PageMap, MappingDecorrelatesCacheIndexBits)
{
    // The point of the model: virtual-address index bits above the page
    // offset must not survive translation systematically.
    PageMap pm(4096, 1 << 20, 9);
    int preserved = 0;
    const int n = 512;
    for (std::uint64_t page = 0; page < n; ++page) {
        const std::uint64_t v = page << 12;
        const std::uint64_t p = pm.translate(v);
        preserved += ((v >> 12) & 0x7) == ((p >> 12) & 0x7);
    }
    // Random agreement is 1/8; allow generous slack.
    EXPECT_LT(preserved, n / 4);
}

TEST(PageMap, PagesCollidingInTheMemoTranslateAsBefore)
{
    // Far more pages than the memo has slots, so pages share slots
    // and evict each other; every translation must still be the one
    // first drawn, in any revisit order.
    PageMap pm;
    constexpr std::uint64_t kPages = 4096;
    std::vector<std::uint64_t> first(kPages);
    for (std::uint64_t p = 0; p < kPages; ++p)
        first[p] = pm.translate(p * 4096 + 5);
    for (std::uint64_t p = kPages; p-- > 0;)
        EXPECT_EQ(pm.translate(p * 4096 + 5), first[p]) << p;
    for (std::uint64_t i = 0; i < kPages; ++i) {
        const std::uint64_t p = (i * 2654435761u) % kPages;
        EXPECT_EQ(pm.translate(p * 4096 + 5), first[p]) << p;
    }
    EXPECT_EQ(pm.mappedPages(), kPages);
}

TEST(PageMap, UntranslateInvertsTranslateAndNoFrameRepeats)
{
    // Seeded addresses over several page sizes, on a frame pool small
    // enough that the draws collide and must be rejected: every
    // translation inverts, and every page got a frame of its own.
    for (std::uint64_t page_bytes : {64ull, 4096ull, 65536ull}) {
        PageMap pm(page_bytes, 4096, page_bytes + 3);
        Rng rng(page_bytes);
        std::set<std::uint64_t> frames;
        for (int i = 0; i < 3000; ++i) {
            const std::uint64_t v = rng.nextBelow(std::uint64_t{1} << 36);
            const std::uint64_t p = pm.translate(v);
            EXPECT_EQ(pm.untranslate(p), v) << page_bytes << " " << v;
            EXPECT_EQ(pm.mapped(v), p) << page_bytes << " " << v;
            frames.insert(p / page_bytes);
        }
        EXPECT_EQ(frames.size(), pm.mappedPages()) << page_bytes;
        EXPECT_FALSE(pm.mapped(std::uint64_t{1} << 40)) << page_bytes;
    }
}

TEST(PageMap, LargePagesSupported)
{
    PageMap pm(256 * 1024); // section 3.1 option 2: 256KB pages
    EXPECT_EQ(pm.pageBytes(), 256u * 1024);
    const std::uint64_t v = 0x123456;
    EXPECT_EQ(pm.translate(v) & (256 * 1024 - 1),
              v & (256 * 1024 - 1));
}

} // anonymous namespace
} // namespace cac
