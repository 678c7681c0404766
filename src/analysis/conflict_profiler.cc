#include "analysis/conflict_profiler.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace cac
{

std::uint64_t
WaySetProfile::occupiedSets() const
{
    std::uint64_t n = 0;
    for (std::uint64_t c : accesses)
        n += c != 0;
    return n;
}

double
WaySetProfile::imbalance() const
{
    std::uint64_t total = 0, peak = 0;
    for (std::uint64_t c : accesses) {
        total += c;
        peak = std::max(peak, c);
    }
    if (total == 0 || accesses.empty())
        return 0.0;
    const double mean =
        static_cast<double>(total) / static_cast<double>(accesses.size());
    return static_cast<double>(peak) / mean;
}

std::uint64_t
ConflictProfile::conflictMisses() const
{
    if (!hasShadow || target.misses() <= shadow.misses())
        return 0;
    return target.misses() - shadow.misses();
}

double
ConflictProfile::conflictMissRatio() const
{
    const std::uint64_t total = target.accesses();
    return total ? static_cast<double>(conflictMisses())
                 / static_cast<double>(total)
                 : 0.0;
}

std::vector<AddrPairConflict>
ConflictProfile::topPairs(std::size_t n) const
{
    std::vector<AddrPairConflict> pairs;
    pairs.reserve(pairCounts.size());
    for (const auto &[key, count] : pairCounts)
        pairs.push_back(AddrPairConflict{key.first, key.second, count});
    std::sort(pairs.begin(), pairs.end(),
              [](const AddrPairConflict &a, const AddrPairConflict &b) {
                  if (a.count != b.count)
                      return a.count > b.count;
                  if (a.blockA != b.blockA)
                      return a.blockA < b.blockA;
                  return a.blockB < b.blockB;
              });
    if (pairs.size() > n)
        pairs.resize(n);
    return pairs;
}

std::string
ConflictProfile::report(std::size_t top_pairs) const
{
    std::ostringstream os;
    os << "profiled " << accesses << " accesses\n";
    if (hasShadow) {
        os << "misses: target " << target.misses() << " ("
           << 100.0 * target.missRatio() << "%), fully-assoc shadow "
           << shadow.misses() << " (" << 100.0 * shadow.missRatio()
           << "%) -> conflict misses " << conflictMisses() << " ("
           << 100.0 * conflictMissRatio() << "% of accesses)\n";
    }
    for (std::size_t w = 0; w < perWay.size(); ++w) {
        os << "way " << w << ": " << perWay[w].occupiedSets() << "/"
           << perWay[w].accesses.size() << " sets occupied, imbalance "
           << perWay[w].imbalance() << "x\n";
    }
    const auto pairs = topPairs(top_pairs);
    if (!pairs.empty()) {
        os << "top conflicting block pairs (collide in every way, "
              "consecutive):\n";
        for (const AddrPairConflict &p : pairs) {
            os << "  0x" << std::hex << p.blockA << " <-> 0x" << p.blockB
               << std::dec << "  x" << p.count << '\n';
        }
    }
    if (hasMultiCore) {
        os << "multicore: " << multicore.cores.size() << " cores\n";
        for (std::size_t c = 0; c < multicore.cores.size(); ++c) {
            const McCoreStats &core = multicore.cores[c];
            os << "  core " << c << ": " << core.l1.accesses()
               << " accesses, " << core.l1.misses() << " misses ("
               << 100.0 * core.l1.missRatio() << "%), L2 lines lost to "
                  "peers "
               << core.l2EvictionsByOthers << ", inter-core conflict "
                  "misses "
               << core.interCoreConflictMisses << '\n';
        }
    }
    return os.str();
}

ConflictProfiler::ConflictProfiler(std::unique_ptr<SimTarget> inner,
                                   const CacheGeometry &geometry,
                                   Options options)
    : inner_(std::move(inner)), geometry_(geometry), options_(options)
{
    CAC_ASSERT(inner_ != nullptr);
    profile_.setBits = geometry_.setBits();
    if (options_.shadow) {
        shadow_ = std::make_unique<FullyAssocCache>(
            geometry_.sizeBytes(), geometry_.blockBytes());
        profile_.hasShadow = true;
    }
    if (options_.pairs) {
        last_block_.assign(geometry_.numSets(), 0);
        last_valid_.assign(geometry_.numSets(), false);
    }
}

void
ConflictProfiler::attachIndex(IndexPlan plan)
{
    CAC_ASSERT(plan.setBits() == geometry_.setBits());
    plan_ = std::move(plan);
    have_plan_ = true;
    way_sets_.assign(plan_.numWays(), 0);
    if (options_.pairs)
        last_sets_.assign(geometry_.numSets() * plan_.numWays(), 0);
    profile_.perWay.assign(plan_.numWays(), WaySetProfile{});
    for (auto &w : profile_.perWay)
        w.accesses.assign(geometry_.numSets(), 0);
}

void
ConflictProfiler::attachIndex(std::unique_ptr<IndexFn> fn)
{
    CAC_ASSERT(fn != nullptr);
    index_ = std::move(fn);
    attachIndex(compilePlan(*index_));
}

void
ConflictProfiler::observeOne(std::uint64_t addr)
{
    ++profile_.accesses;
    if (!have_plan_)
        return;
    const std::uint64_t block = geometry_.blockAddr(addr);
    plan_.indexAll(block, way_sets_.data());
    for (std::size_t w = 0; w < way_sets_.size(); ++w)
        ++profile_.perWay[w].accesses[way_sets_[w]];

    if (options_.pairs) {
        // Consecutive distinct blocks on one way-0 home set are only a
        // *conflict* pair when they collide in every way — a skewed
        // organization separates pairs that clash in way 0 alone, which
        // is the whole point of skewing (section 2's "repetitive
        // interference" needs an all-way collision to thrash).
        const std::uint64_t home = way_sets_[0];
        const std::size_t ways = way_sets_.size();
        std::uint64_t *last_sets = last_sets_.data() + home * ways;
        if (last_valid_[home] && last_block_[home] != block) {
            // The predecessor's way sets were cached when it was
            // observed, so the all-way comparison is ways-1 loads.
            bool all_ways = true;
            for (std::size_t w = 1; w < ways && all_ways; ++w)
                all_ways = last_sets[w] == way_sets_[w];
            if (all_ways) {
                const std::pair<std::uint64_t, std::uint64_t> key =
                    std::minmax(last_block_[home], block);
                auto it = profile_.pairCounts.find(key);
                if (it != profile_.pairCounts.end()) {
                    ++it->second;
                } else if (profile_.pairCounts.size()
                           < options_.maxPairs) {
                    profile_.pairCounts.emplace(key, 1);
                }
            }
        }
        last_block_[home] = block;
        last_valid_[home] = true;
        for (std::size_t w = 0; w < ways; ++w)
            last_sets[w] = way_sets_[w];
    }
}

void
ConflictProfiler::accessBatch(const std::uint64_t *addrs, std::size_t n,
                              bool is_write)
{
    for (std::size_t i = 0; i < n; ++i)
        observeOne(addrs[i]);
    if (shadow_)
        shadow_->accessBatch(addrs, n, is_write);
    inner_->accessBatch(addrs, n, is_write);
}

void
ConflictProfiler::replay(const TraceRecord *recs, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (isMemOp(recs[i].op))
            observeOne(recs[i].addr);
    }
    if (shadow_)
        shadow_gather_.replay(*shadow_, recs, n);
    inner_->replay(recs, n);
}

void
ConflictProfiler::finish()
{
    if (shadow_)
        shadow_gather_.flush(*shadow_);
    inner_->finish();
}

void
ConflictProfiler::checkpoint()
{
    if (shadow_)
        shadow_gather_.flush(*shadow_);
    inner_->checkpoint();
}

void
ConflictProfiler::flushPrimary()
{
    if (shadow_) {
        shadow_gather_.flush(*shadow_);
        shadow_->flush();
    }
    // Conflict pairs must not span a flush: the predecessor block is
    // no longer resident, so a same-set successor cannot thrash with
    // it.
    std::fill(last_valid_.begin(), last_valid_.end(), false);
    inner_->flushPrimary();
}

const ConflictProfile &
ConflictProfiler::profile() const
{
    const TargetStats inner_stats = inner_->stats();
    profile_.target = inner_stats.l1;
    if (shadow_)
        profile_.shadow = shadow_->stats();
    profile_.hasMultiCore = inner_stats.hasMultiCore;
    if (inner_stats.hasMultiCore)
        profile_.multicore = inner_stats.mc;
    return profile_;
}

} // namespace cac
