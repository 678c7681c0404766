#include "cache/cache_model.hh"

#include "common/logging.hh"

namespace cac
{

CacheModel::CacheModel(const CacheGeometry &geometry) : geometry_(geometry)
{
}

void
CacheModel::accessBatch(const std::uint64_t *addrs, std::size_t n,
                        bool is_write)
{
    for (std::size_t i = 0; i < n; ++i)
        access(addrs[i], is_write);
}

void
CacheModel::accessMixed(const std::uint64_t *addrs, const bool *writes,
                        std::size_t n)
{
    std::size_t base = 0;
    while (base < n) {
        std::size_t end = base + 1;
        while (end < n && writes[end] == writes[base])
            ++end;
        accessBatch(addrs + base, end - base, writes[base]);
        base = end;
    }
}

void
CacheModel::forEachBlock(const std::function<void(std::uint64_t)> &) const
{
    panic("%s cannot list its resident blocks", name().c_str());
}

namespace
{

/**
 * The one list of CacheStats counters, so the delta and accumulate
 * sides of slice attribution cannot drift apart when a field is added.
 */
constexpr std::uint64_t CacheStats::*kStatFields[] = {
    &CacheStats::loads,          &CacheStats::stores,
    &CacheStats::loadMisses,     &CacheStats::storeMisses,
    &CacheStats::fills,          &CacheStats::evictions,
    &CacheStats::writebacks,     &CacheStats::invalidations,
    &CacheStats::firstProbeHits, &CacheStats::secondProbeHits};

} // anonymous namespace

CacheStats
cacheStatsDelta(const CacheStats &now, const CacheStats &then)
{
    CacheStats d;
    for (auto field : kStatFields)
        d.*field = now.*field - then.*field;
    return d;
}

void
cacheStatsAccumulate(CacheStats &into, const CacheStats &delta)
{
    for (auto field : kStatFields)
        into.*field += delta.*field;
}

} // namespace cac
