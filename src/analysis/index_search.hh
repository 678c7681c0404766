/**
 * @file
 * IndexSearch: automated search for a good placement function.
 *
 * The paper hand-picks its polynomials; this engine picks them
 * mechanically. It grids a candidate family — the k-th irreducible
 * polynomials of the PolyCatalog (skewed and unskewed per-way
 * assignments), seeded random full-rank XOR matrices (MatrixIndex),
 * and the conventional baselines (bit selection, skewed field-XOR) —
 * against a workload, running every candidate as a fresh
 * SetAssocCache on the SweepRunner thread pool next to one shared
 * fully-associative reference of the same capacity.
 *
 * Ranking combines all three quantities the hardware designer trades
 * off: *measured* conflict misses (candidate misses beyond the
 * fully-associative reference's), the analyzer's *predicted* conflict
 * score (GF(2) lost rank across power-of-two strides), and hardware
 * cost (widest XOR-gate fan-in). Results are deterministic for a given
 * (config, workload) at any thread count.
 *
 * Exposed as `cac_sim --search`; e2ebench's traced
 * analysis.compute_ms reports its time (not gated).
 */

#ifndef CAC_ANALYSIS_INDEX_SEARCH_HH
#define CAC_ANALYSIS_INDEX_SEARCH_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_model.hh"
#include "cache/geometry.hh"
#include "common/error.hh"
#include "index/index_fn.hh"
#include "trace/io.hh"
#include "trace/record.hh"

namespace cac
{

class Scenario;

/** One candidate placement function in the search grid. */
struct IndexCandidate
{
    std::string label; ///< unique name in reports ("hp-sk[3]", ...)
    std::string kind;  ///< family: "mod", "hx-sk", "hp", "hp-sk", "rand"
    /** Build a fresh instance (called from worker threads). */
    std::function<std::unique_ptr<IndexFn>()> make;
};

/** Search-space and execution parameters. */
struct SearchConfig
{
    /** Geometry every candidate is evaluated on (paper L1 default). */
    CacheGeometry geometry = CacheGeometry::paperL1_8k();
    /** Block-address input bits for the hashing candidates (paper v). */
    unsigned inputBits = 14;
    /** Catalog polynomials gridded per family (clamped to the count). */
    std::size_t polyStarts = 16;
    /** Seeded random full-rank matrices added. */
    std::size_t randomSeeds = 8;
    std::uint64_t seed = 1; ///< base seed of the random candidates
    /** Include the "mod" and "hx-sk" reference candidates. */
    bool includeBaselines = true;
    unsigned threads = 1; ///< SweepRunner worker count
    /**
     * Per-cell wall-clock deadline in milliseconds (0 = none), applied
     * to the measured pass through SweepRunner::setCellDeadline(). A
     * blown deadline does not abort the grid: the affected results come
     * back with failed = true and a Timeout Error, and rank after every
     * healthy candidate. The advisor service uses this to bound the
     * cost of a single request.
     */
    unsigned cellDeadlineMs = 0;
};

/** One ranked search result row. */
struct SearchResult
{
    unsigned rank = 0; ///< 0 = best
    std::string label;
    std::string kind;
    std::string indexName; ///< the candidate's IndexFn::name()
    bool skewed = false;
    unsigned maxFanIn = 0;        ///< hardware cost
    unsigned predictedScore = 0;  ///< analyzer lost-rank score
    bool strideFree = false;      ///< analyzer certificate
    CacheStats stats;             ///< measured on the workload
    std::uint64_t conflictMisses = 0; ///< misses beyond the reference
    double conflictMissPct = 0.0;     ///< per access, percent
    std::uint64_t way0OccupiedSets = 0; ///< measured occupancy (way 0)
    /**
     * The measured pass for this candidate (or the shared reference it
     * is compared against) failed — typically a blown cellDeadlineMs.
     * Failed rows keep their static-analysis fields, carry zeroed
     * measurements, and sort after every healthy row.
     */
    bool failed = false;
    Error error; ///< why, when failed (ErrorCode::Timeout, ...)
    /**
     * Degradation totals from this candidate's sweep cell: what a
     * streamed read under Skip/Resync dropped (all-zero for healthy
     * reads and for in-memory workloads, whose loader reports drops).
     */
    ReadStats read;
};

/** Parallel placement-function search over one workload. */
class IndexSearch
{
  public:
    explicit IndexSearch(const SearchConfig &config);

    /** The generated grid, in evaluation order. */
    const std::vector<IndexCandidate> &candidates() const
    {
        return candidates_;
    }

    /** Append a custom candidate to the grid. */
    void addCandidate(IndexCandidate candidate);

    /**
     * Evaluate every candidate on a load-only address stream. Returns
     * results sorted best first: ascending measured conflict misses,
     * then predicted score, then fan-in, then label.
     */
    std::vector<SearchResult>
    run(std::vector<std::uint64_t> addrs) const;

    /** Evaluate every candidate on an instruction trace. */
    std::vector<SearchResult>
    run(std::shared_ptr<const Trace> trace) const;

    /**
     * Evaluate every candidate on a multiprogrammed scenario, replayed
     * segment by segment under its switch policy (a "flush" mix
     * invalidates every candidate and the reference at each switch).
     */
    std::vector<SearchResult>
    run(std::shared_ptr<const Scenario> scenario) const;

    /**
     * Evaluate every candidate on a CACTRC01/02 trace *file*,
     * streamed: each group of candidates shares one chunked
     * TraceReader (SweepRunner row replay), so memory stays bounded
     * however long the trace is. Results are identical to loading the
     * trace and calling run(). @p options configure the reader
     * (policy, checksum verification, fault injection, chunk size);
     * damage it cannot recover from fails the results.
     */
    std::vector<SearchResult>
    runTraceFile(const std::string &path,
                 const TraceReaderOptions &options = {}) const;

  private:
    std::vector<SearchResult>
    runGrid(const std::function<void(class SweepRunner &)> &add_workload)
        const;

    SearchConfig config_;
    std::vector<IndexCandidate> candidates_;
};

/** Render search results as CSV (header + one row per candidate). */
std::string searchCsv(const std::vector<SearchResult> &results);

} // namespace cac

#endif // CAC_ANALYSIS_INDEX_SEARCH_HH
