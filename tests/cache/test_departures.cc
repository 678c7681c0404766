/**
 * @file
 * The departure oracle, over every registry organization: after each
 * access of a seeded stream over a small block universe, the set of
 * probe()-able blocks must equal the set before it, plus the filled
 * block, minus the reported departure (AccessResult::evictedAddr). A
 * reported departure must no longer be probe()-able, and an access
 * hits exactly when its block was probe()-able. CoherentSystem's
 * reverse maps are only as exact as this contract; a failure names
 * the organization, the seed and the access index.
 */

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "core/registry.hh"

namespace cac
{
namespace
{

constexpr std::size_t kUniverse = 600;

/**
 * Replay @p accesses seeded accesses through a fresh @p label cache
 * and check the departure contract after each one.
 * @return the first violation, or an empty string.
 */
std::string
checkDepartures(const std::string &label, bool write_allocate,
                std::uint64_t seed, std::size_t accesses)
{
    OrgSpec spec;
    spec.writeAllocate = write_allocate;
    const auto cache = makeOrganization(label, spec);
    const CacheGeometry &geom = cache->geometry();

    // Distinct blocks spread over 2^16 block numbers, so every index
    // bit and the two-probe rehash's input bits vary.
    Rng rng(seed);
    std::vector<std::uint64_t> universe;
    std::unordered_map<std::uint64_t, std::size_t> slot_of;
    while (universe.size() < kUniverse) {
        const std::uint64_t addr = geom.byteAddr(rng.nextBelow(1u << 16));
        if (slot_of.emplace(addr, universe.size()).second)
            universe.push_back(addr);
    }

    std::vector<bool> resident(kUniverse, false);
    for (std::size_t i = 0; i < accesses; ++i) {
        const std::size_t k = rng.nextBelow(kUniverse);
        const bool is_write = rng.chance(0.2);
        const std::string where = label
            + (write_allocate ? " wa" : " nwa") + " seed "
            + std::to_string(seed) + " access " + std::to_string(i) + ": ";
        const AccessResult r =
            cache->access(universe[k] + rng.nextBelow(geom.blockBytes()),
                          is_write);
        if (r.hit != resident[k])
            return where + "hit disagrees with the previous probe()";

        std::vector<bool> want = resident;
        if (r.filled)
            want[k] = true;
        if (r.evictedAddr) {
            const auto departed = slot_of.find(*r.evictedAddr);
            if (departed == slot_of.end() || !resident[departed->second])
                return where + "reported departure "
                    + std::to_string(*r.evictedAddr)
                    + " was not resident";
            if (departed->second == k)
                return where + "the accessed block departed";
            if (cache->probe(*r.evictedAddr))
                return where + "reported departure "
                    + std::to_string(*r.evictedAddr)
                    + " is still resident";
            want[departed->second] = false;
        }
        for (std::size_t j = 0; j < kUniverse; ++j) {
            if (cache->probe(universe[j]) != want[j])
                return where + "block " + std::to_string(universe[j])
                    + (want[j] ? " left without being reported"
                               : " appeared without a fill");
        }
        resident = std::move(want);
    }
    return {};
}

TEST(Departures, EveryOrganizationReportsExactlyWhatLeaves)
{
    const std::vector<std::string> labels =
        OrgRegistry::global().exampleLabels();
    ASSERT_FALSE(labels.empty());
    for (std::size_t l = 0; l < labels.size(); ++l) {
        EXPECT_EQ(checkDepartures(labels[l], true, 1 + l, 20000), "");
        EXPECT_EQ(checkDepartures(labels[l], false, 101 + l, 5000), "");
    }
}

} // anonymous namespace
} // namespace cac
