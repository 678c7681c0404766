#include "analysis/index_search.hh"

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "analysis/conflict_analyzer.hh"
#include "analysis/conflict_profiler.hh"
#include "cache/fully_assoc.hh"
#include "cache/set_assoc.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/sweep.hh"
#include "index/factory.hh"
#include "obs/obs.hh"
#include "index/ipoly.hh"
#include "index/matrix_index.hh"
#include "index/xor_skew.hh"
#include "poly/catalog.hh"

namespace cac
{

namespace
{

/** Label of the shared fully-associative conflict reference. */
const char *const kReferenceLabel = "(full-ref)";

} // anonymous namespace

IndexSearch::IndexSearch(const SearchConfig &config) : config_(config)
{
    const unsigned m = config_.geometry.setBits();
    const unsigned ways = config_.geometry.ways();
    const unsigned v = config_.inputBits;
    CAC_ASSERT(v >= m && v <= 64);

    if (config_.includeBaselines) {
        candidates_.push_back({"mod", "mod", [m, ways] {
                                   return std::make_unique<ModuloIndex>(
                                       m, ways);
                               }});
        candidates_.push_back({"hx-sk", "hx-sk", [m, ways] {
                                   return std::make_unique<XorSkewIndex>(
                                       m, ways, true);
                               }});
    }

    // Catalog polynomials: candidate k uses the k-th irreducible of
    // degree m — identical per way ("hp[k]") and the skewed assignment
    // giving way w the (k+w)-th polynomial ("hp-sk[k]").
    const std::size_t npolys =
        std::min(config_.polyStarts, PolyCatalog::countIrreducible(m));
    for (std::size_t k = 0; k < npolys; ++k) {
        candidates_.push_back(
            {"hp[" + std::to_string(k) + "]", "hp", [m, ways, v, k] {
                 std::vector<Gf2Poly> polys(
                     ways, PolyCatalog::irreducible(m, k));
                 return std::make_unique<IPolyIndex>(polys, v);
             }});
        if (ways > 1) {
            candidates_.push_back(
                {"hp-sk[" + std::to_string(k) + "]", "hp-sk",
                 [m, ways, v, k] {
                     const std::size_t count =
                         PolyCatalog::countIrreducible(m);
                     std::vector<Gf2Poly> polys;
                     for (unsigned w = 0; w < ways; ++w) {
                         polys.push_back(PolyCatalog::irreducible(
                             m, (k + w) % count));
                     }
                     return std::make_unique<IPolyIndex>(polys, v);
                 }});
        }
    }

    // Seeded random full-rank XOR matrices (skewed: independent draws
    // per way). Deterministic given config_.seed.
    for (std::size_t s = 0; s < config_.randomSeeds; ++s) {
        const std::uint64_t seed = config_.seed + s;
        candidates_.push_back(
            {"rand[" + std::to_string(s) + "]", "rand",
             [m, ways, v, seed] {
                 return MatrixIndex::randomFullRank(m, ways, v, seed);
             }});
    }
}

void
IndexSearch::addCandidate(IndexCandidate candidate)
{
    CAC_ASSERT(candidate.make != nullptr);
    candidates_.push_back(std::move(candidate));
}

std::vector<SearchResult>
IndexSearch::run(std::vector<std::uint64_t> addrs) const
{
    return runGrid([addrs = std::move(addrs)](SweepRunner &sweep) {
        sweep.addAddressWorkload("search", addrs);
    });
}

std::vector<SearchResult>
IndexSearch::run(std::shared_ptr<const Trace> trace) const
{
    CAC_ASSERT(trace != nullptr);
    return runGrid([trace = std::move(trace)](SweepRunner &sweep) {
        sweep.addTraceWorkload("search", trace);
    });
}

std::vector<SearchResult>
IndexSearch::run(std::shared_ptr<const Scenario> scenario) const
{
    CAC_ASSERT(scenario != nullptr);
    return runGrid([scenario = std::move(scenario)](SweepRunner &sweep) {
        sweep.addScenarioWorkload("search", scenario);
    });
}

std::vector<SearchResult>
IndexSearch::runTraceFile(const std::string &path,
                          const TraceReaderOptions &options) const
{
    return runGrid([&](SweepRunner &sweep) {
        sweep.addTraceFileWorkload("search", path, options);
    });
}

std::vector<SearchResult>
IndexSearch::runGrid(
    const std::function<void(SweepRunner &)> &add_workload) const
{
    const CacheGeometry geometry = config_.geometry;

    // Static analysis first, on the calling thread: predicted conflict
    // score, fan-in and the certificate come from GF(2) algebra alone.
    std::vector<SearchResult> results(candidates_.size());
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
        SearchResult &r = results[i];
        r.label = candidates_[i].label;
        r.kind = candidates_[i].kind;
        CAC_OBS_SPAN_D("search", "search.analyze", r.label);
        const std::unique_ptr<IndexFn> fn = candidates_[i].make();
        r.indexName = fn->name();
        r.skewed = fn->isSkewed();
        const ConflictAnalysis analysis =
            analyzeIndex(*fn, config_.inputBits);
        r.predictedScore = analysis.predictedConflictScore();
        r.strideFree = analysis.strideFreeCertificate();
        for (const WayConflictAnalysis &w : analysis.ways)
            r.maxFanIn = std::max(r.maxFanIn, w.maxFanIn);
    }

    // Measured pass: every candidate as a profiled SetAssocCache next
    // to one fully-associative reference, on the sweep thread pool.
    SweepRunner sweep(config_.threads);
    if (config_.cellDeadlineMs > 0)
        sweep.setCellDeadline(config_.cellDeadlineMs);
    sweep.addOrg(kReferenceLabel, [geometry] {
        return std::make_unique<FullyAssocCache>(geometry.sizeBytes(),
                                                 geometry.blockBytes());
    });
    for (const IndexCandidate &candidate : candidates_) {
        const auto make = candidate.make;
        sweep.addTarget(candidate.label, [geometry, make] {
            // One IndexFn per cell: its compiled plan serves both the
            // cache and the histogram decorator, and the function
            // outlives the profiler inside the wrapped target.
            std::unique_ptr<IndexFn> fn = make();
            const IndexPlan plan = compilePlan(*fn);
            auto target = std::make_unique<CacheTarget>(
                std::make_unique<SetAssocCache>(geometry,
                                                std::move(fn)));
            // Histograms only: conflict attribution reuses the shared
            // reference instead of one shadow per candidate.
            ConflictProfiler::Options opt;
            opt.shadow = false;
            opt.pairs = false;
            auto profiled = std::make_unique<ConflictProfiler>(
                std::move(target), geometry, opt);
            profiled->attachIndex(plan);
            return profiled;
        });
    }

    // Harvest per-candidate occupancy through the cell observer (runs
    // on worker threads; the map is label-keyed and mutex-guarded).
    std::mutex harvest_mutex;
    std::unordered_map<std::string, std::uint64_t> occupied;
    sweep.setCellObserver([&](const SweepCell &cell, SimTarget &target) {
        auto *profiler = dynamic_cast<ConflictProfiler *>(&target);
        if (profiler == nullptr)
            return; // the reference cell
        const ConflictProfile &profile = profiler->profile();
        std::uint64_t sets = profile.perWay.empty()
                                 ? 0
                                 : profile.perWay[0].occupiedSets();
        std::lock_guard<std::mutex> lock(harvest_mutex);
        occupied[cell.org] = sets;
    });

    add_workload(sweep);
    const std::vector<SweepCell> cells = sweep.run();
    CAC_ASSERT(cells.size() == candidates_.size() + 1);
    const std::uint64_t reference_misses = cells[0].stats.misses();

    // A dead reference poisons every comparison: without its miss
    // count no candidate's conflict-miss delta means anything, so the
    // whole grid is reported failed with the reference's error.
    const bool reference_failed = cells[0].failed;

    for (std::size_t i = 0; i < candidates_.size(); ++i) {
        SearchResult &r = results[i];
        const SweepCell &cell = cells[i + 1];
        r.read = cell.read;
        if (reference_failed || cell.failed) {
            r.failed = true;
            r.error = reference_failed ? cells[0].error : cell.error;
            continue;
        }
        const CacheStats &stats = cell.stats;
        r.stats = stats;
        r.conflictMisses = stats.misses() > reference_misses
                               ? stats.misses() - reference_misses
                               : 0;
        r.conflictMissPct =
            stats.accesses()
                ? 100.0 * static_cast<double>(r.conflictMisses)
                      / static_cast<double>(stats.accesses())
                : 0.0;
        auto it = occupied.find(r.label);
        r.way0OccupiedSets = it != occupied.end() ? it->second : 0;
    }

    // Rank: measured conflicts first, predictions break ties, cheaper
    // hardware breaks those, label order makes the sort total (and the
    // result reproducible at any thread count). Failed cells sort
    // after every healthy one.
    std::sort(results.begin(), results.end(),
              [](const SearchResult &a, const SearchResult &b) {
                  if (a.failed != b.failed)
                      return !a.failed;
                  if (a.conflictMisses != b.conflictMisses)
                      return a.conflictMisses < b.conflictMisses;
                  if (a.predictedScore != b.predictedScore)
                      return a.predictedScore < b.predictedScore;
                  if (a.maxFanIn != b.maxFanIn)
                      return a.maxFanIn < b.maxFanIn;
                  return a.label < b.label;
              });
    for (std::size_t i = 0; i < results.size(); ++i)
        results[i].rank = static_cast<unsigned>(i);
    return results;
}

std::string
searchCsv(const std::vector<SearchResult> &results)
{
    std::string out =
        "rank,candidate,kind,index,skewed,max_fanin,predicted_score,"
        "stride_free,accesses,misses,miss_pct,conflict_misses,"
        "conflict_miss_pct,way0_occupied_sets\n";
    char numbers[192];
    for (const SearchResult &r : results) {
        // Strings are appended quoted and unbounded; only the numeric
        // tail goes through the fixed-size formatting buffer.
        out += std::to_string(r.rank);
        out += ',';
        out += csvField(r.label);
        out += ',';
        out += csvField(r.kind);
        out += ',';
        out += csvField(r.indexName);
        std::snprintf(
            numbers, sizeof(numbers),
            ",%d,%u,%u,%d,%llu,%llu,%.4f,%llu,%.4f,%llu\n",
            r.skewed ? 1 : 0, r.maxFanIn, r.predictedScore,
            r.strideFree ? 1 : 0,
            static_cast<unsigned long long>(r.stats.accesses()),
            static_cast<unsigned long long>(r.stats.misses()),
            100.0 * r.stats.missRatio(),
            static_cast<unsigned long long>(r.conflictMisses),
            r.conflictMissPct,
            static_cast<unsigned long long>(r.way0OccupiedSets));
        out += numbers;
    }
    return out;
}

} // namespace cac
