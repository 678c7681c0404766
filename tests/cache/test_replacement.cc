/**
 * @file
 * Tests for the replacement policies.
 */

#include <gtest/gtest.h>

#include "cache/replacement.hh"

namespace cac
{
namespace
{

/** Build a candidate list over the given states. */
std::vector<ReplCandidate>
candidatesFor(const std::vector<ReplState> &states, bool all_valid = true)
{
    std::vector<ReplCandidate> cands(states.size());
    for (std::size_t i = 0; i < states.size(); ++i) {
        cands[i].valid = all_valid;
        cands[i].state = &states[i];
    }
    return cands;
}

TEST(Replacement, InvalidCandidatePreferredByAll)
{
    for (ReplKind kind : {ReplKind::Lru, ReplKind::Fifo, ReplKind::Random,
                          ReplKind::Nru}) {
        auto policy = makeReplacementPolicy(kind);
        std::vector<ReplState> states(4);
        auto cands = candidatesFor(states);
        cands[2].valid = false;
        EXPECT_EQ(policy->chooseVictim(cands), 2u)
            << policy->name();
    }
}

TEST(Replacement, LruEvictsOldestTouch)
{
    auto policy = makeReplacementPolicy(ReplKind::Lru);
    std::vector<ReplState> states(4);
    for (unsigned i = 0; i < 4; ++i)
        policy->onAccess(states[i], 10 + i);
    policy->onAccess(states[1], 100); // way 1 now MRU
    auto cands = candidatesFor(states);
    EXPECT_EQ(policy->chooseVictim(cands), 0u);
}

TEST(Replacement, LruWorksAcrossDifferentSets)
{
    // Skewed caches hand LRU candidates from different sets; the
    // policy sees only their line state and ranks on timestamps.
    auto policy = makeReplacementPolicy(ReplKind::Lru);
    std::vector<ReplState> states(2);
    policy->onAccess(states[0], 50);
    policy->onAccess(states[1], 20);
    auto cands = candidatesFor(states);
    EXPECT_EQ(policy->chooseVictim(cands), 1u);
}

TEST(Replacement, FifoIgnoresTouches)
{
    auto policy = makeReplacementPolicy(ReplKind::Fifo);
    std::vector<ReplState> states(3);
    policy->onInsert(states[0], 1);
    policy->onInsert(states[1], 2);
    policy->onInsert(states[2], 3);
    // Touch way 0 repeatedly: FIFO must still evict it first.
    policy->onAccess(states[0], 99);
    auto cands = candidatesFor(states);
    EXPECT_EQ(policy->chooseVictim(cands), 0u);
}

TEST(Replacement, RandomIsDeterministicPerSeed)
{
    auto a = makeReplacementPolicy(ReplKind::Random, 7);
    auto b = makeReplacementPolicy(ReplKind::Random, 7);
    std::vector<ReplState> states(4);
    auto cands = candidatesFor(states);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a->chooseVictim(cands), b->chooseVictim(cands));
}

TEST(Replacement, RandomCoversAllWays)
{
    auto policy = makeReplacementPolicy(ReplKind::Random, 11);
    std::vector<ReplState> states(4);
    auto cands = candidatesFor(states);
    bool seen[4] = {};
    for (int i = 0; i < 200; ++i)
        seen[policy->chooseVictim(cands)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Replacement, NruEvictsUnreferencedFirst)
{
    auto policy = makeReplacementPolicy(ReplKind::Nru);
    std::vector<ReplState> states(3);
    for (unsigned i = 0; i < 3; ++i)
        policy->onInsert(states[i], i);
    policy->onAccess(states[0], 10);
    policy->onAccess(states[2], 11);
    auto cands = candidatesFor(states);
    EXPECT_EQ(policy->chooseVictim(cands), 1u);
}

TEST(Replacement, NruAgesWhenAllReferenced)
{
    auto policy = makeReplacementPolicy(ReplKind::Nru);
    std::vector<ReplState> states(2);
    for (unsigned i = 0; i < 2; ++i) {
        policy->onInsert(states[i], i);
        policy->onAccess(states[i], 10 + i);
    }
    auto cands = candidatesFor(states);
    EXPECT_EQ(policy->chooseVictim(cands), 0u); // all set: clear + take 0
    // Aging cleared the reference bits.
    EXPECT_FALSE(states[0].referenced);
    EXPECT_FALSE(states[1].referenced);
}

TEST(Replacement, ParseLabels)
{
    EXPECT_EQ(parseReplKind("lru"), ReplKind::Lru);
    EXPECT_EQ(parseReplKind("fifo"), ReplKind::Fifo);
    EXPECT_EQ(parseReplKind("random"), ReplKind::Random);
    EXPECT_EQ(parseReplKind("nru"), ReplKind::Nru);
}

TEST(ReplacementDeath, ParseRejectsUnknown)
{
    EXPECT_EXIT((void)parseReplKind("clock"),
                ::testing::ExitedWithCode(1), "unknown");
    EXPECT_EXIT((void)parseReplKind("plru"),
                ::testing::ExitedWithCode(1), "unknown");
}

} // anonymous namespace
} // namespace cac
