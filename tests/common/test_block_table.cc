/**
 * @file
 * Randomized differential test of BlockTable against
 * std::unordered_map. Seeded insert/find/erase/clear sequences over
 * clustered sequential block numbers (the key shape the miss path
 * sees) stress long probe runs, backward shifts that wrap around the
 * end of the slot array, and growth; the full contents are compared
 * after every step, on unreserved tables and on tables reserve()d
 * below, at and above the sequence's peak size.
 */

#include <algorithm>
#include <string>
#include <unordered_map>

#include <gtest/gtest.h>

#include "common/block_table.hh"
#include "common/rng.hh"

namespace cac
{
namespace
{

using Reference = std::unordered_map<std::uint64_t, std::uint64_t>;

/** Size and every (key, value) pair agree, both ways. */
::testing::AssertionResult
sameContents(const BlockTable<std::uint64_t> &table, const Reference &ref)
{
    if (table.size() != ref.size()) {
        return ::testing::AssertionFailure()
            << "size " << table.size() << " vs " << ref.size();
    }
    for (const auto &[key, value] : ref) {
        const std::uint64_t *got = table.find(key);
        if (got == nullptr)
            return ::testing::AssertionFailure() << "lost key " << key;
        if (*got != value) {
            return ::testing::AssertionFailure()
                << "key " << key << " holds " << *got << " not " << value;
        }
    }
    std::size_t visited = 0;
    std::string stray;
    table.forEach([&](std::uint64_t key, std::uint64_t value) {
        ++visited;
        auto it = ref.find(key);
        if (it == ref.end() || it->second != value)
            stray = std::to_string(key);
    });
    if (!stray.empty())
        return ::testing::AssertionFailure() << "stray key " << stray;
    if (visited != ref.size())
        return ::testing::AssertionFailure() << "forEach count " << visited;
    return ::testing::AssertionSuccess();
}

/**
 * A clustered block number: one of a few cluster bases plus a small
 * sequential offset, so neighbouring keys collide into shared runs.
 */
std::uint64_t
clusteredKey(Rng &rng, std::uint64_t span)
{
    static constexpr std::uint64_t kBases[] = {
        0, 0x20000, 0x7FFFFFFFFFF00ull, 0x123456789ull};
    return kBases[rng.nextBelow(4)] + rng.nextBelow(span);
}

/**
 * Replay seed @p seed's random insert/erase/find/clear sequence on
 * @p table, comparing it with std::unordered_map after every step.
 * @p peak receives the largest size the sequence reached.
 */
void
replayRandomSequence(std::uint64_t seed, BlockTable<std::uint64_t> &table,
                     std::size_t &peak)
{
    // Spans from a handful of keys (tiny tables, frequent wrap-around)
    // to thousands (several doublings).
    constexpr std::uint64_t kSpans[] = {3, 12, 40, 300, 1500};
    Rng rng(seed);
    const std::uint64_t span = kSpans[seed % 5];
    Reference ref;
    peak = 0;
    for (unsigned step = 0; step < 4000; ++step) {
        const std::uint64_t key = clusteredKey(rng, span);
        const std::uint64_t op = rng.nextBelow(100);
        if (op < 45) {
            const std::uint64_t value = rng.next();
            auto [slot, fresh] = table.insert(key);
            ASSERT_EQ(fresh, ref.count(key) == 0) << "step " << step;
            slot = value;
            ref[key] = value;
        } else if (op < 90) {
            ASSERT_EQ(table.erase(key), ref.erase(key) == 1)
                << "step " << step;
        } else if (op < 99) {
            const std::uint64_t *got = table.find(key);
            auto it = ref.find(key);
            ASSERT_EQ(got != nullptr, it != ref.end()) << "step " << step;
            if (got != nullptr) {
                ASSERT_EQ(*got, it->second) << "step " << step;
            }
        } else {
            table.clear();
            ref.clear();
        }
        peak = std::max(peak, ref.size());
        ASSERT_TRUE(sameContents(table, ref)) << "step " << step;
    }
}

TEST(BlockTable, MatchesUnorderedMapOnRandomSequences)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        BlockTable<std::uint64_t> unreserved;
        std::size_t peak = 0;
        replayRandomSequence(seed, unreserved, peak);
        ASSERT_FALSE(HasFatalFailure());
        // Reserved for an eighth of the sequence's peak size (beyond
        // 16 slots the table outgrows the reservation and doubles), for
        // the peak and for four times it.
        for (const std::size_t n : {peak / 8, peak, 4 * peak}) {
            SCOPED_TRACE("reserve " + std::to_string(n) + " peak "
                         + std::to_string(peak));
            BlockTable<std::uint64_t> table;
            table.reserve(n);
            std::size_t reserved_peak = 0;
            replayRandomSequence(seed, table, reserved_peak);
            ASSERT_FALSE(HasFatalFailure());
        }
    }
}

TEST(BlockTableDeath, ReserveOnNonEmptyTableAsserts)
{
    BlockTable<std::uint64_t> table;
    table.insert(7);
    EXPECT_DEATH(table.reserve(64), "size_ == 0");
}

TEST(BlockTable, InsertValueInitializesAndKeepsExisting)
{
    BlockTable<std::uint64_t> table;
    EXPECT_TRUE(table.empty());
    EXPECT_EQ(table.find(7), nullptr);
    EXPECT_FALSE(table.erase(7));

    auto [fresh_value, fresh] = table.insert(7);
    EXPECT_TRUE(fresh);
    EXPECT_EQ(fresh_value, 0u);
    fresh_value = 42;
    auto [again_value, again] = table.insert(7);
    EXPECT_FALSE(again);
    EXPECT_EQ(again_value, 42u);
    // The reserved empty-slot key is never found.
    EXPECT_EQ(table.find(BlockTable<std::uint64_t>::kEmptyKey), nullptr);
    EXPECT_FALSE(table.erase(BlockTable<std::uint64_t>::kEmptyKey));
    EXPECT_EQ(table.size(), 1u);
}

TEST(BlockTable, CopiesAreIndependent)
{
    BlockTable<std::uint64_t> a;
    for (std::uint64_t k = 0; k < 100; ++k)
        a.insert(k).first = k * 3;
    BlockTable<std::uint64_t> b = a;
    b.erase(5);
    b.insert(5000).first = 1;
    EXPECT_EQ(a.size(), 100u);
    ASSERT_NE(a.find(5), nullptr);
    EXPECT_EQ(*a.find(5), 15u);
    EXPECT_EQ(a.find(5000), nullptr);
    EXPECT_EQ(b.size(), 100u);
    EXPECT_EQ(b.find(5), nullptr);
}

TEST(BlockTable, SetTracksMembership)
{
    BlockSet set;
    for (std::uint64_t k = 100; k < 400; ++k)
        EXPECT_TRUE(set.insert(k).second);
    EXPECT_FALSE(set.insert(150).second);
    EXPECT_EQ(set.size(), 300u);
    for (std::uint64_t k = 100; k < 400; k += 2)
        EXPECT_TRUE(set.erase(k));
    for (std::uint64_t k = 100; k < 400; ++k)
        EXPECT_EQ(set.find(k) != nullptr, k % 2 == 1) << k;
}

} // anonymous namespace
} // namespace cac
