/**
 * @file
 * Advisor request model: parse, validate, canonicalize and compute.
 *
 * This layer turns a decoded wire payload (serve/protocol.hh key=value
 * map) into a validated AdvisorRequest, renders the *canonical key*
 * that memoization and single-flight are indexed by, and runs the
 * request through the existing engines — SweepRunner for ANALYZE,
 * IndexSearch for RECOMMEND — returning the response payload as
 * key=value text.
 *
 * Canonicalization is the contract the memo cache depends on: two
 * requests that mean the same thing must render the same key, and two
 * that differ in any result-affecting parameter must not. The key is
 * built from re-rendered, fully-explicit forms — the workload's
 * ScenarioSpec with every option spelled out in a fixed order (so
 * "mix:swim@n=120k,q=50k" and "mix:swim@q=50000,n=120000" collide, as
 * they should), the *built* target's name() for ANALYZE (so alias
 * labels like "dm" and "a1", which construct identical caches, collide
 * too), and the explicit search-space numbers for RECOMMEND. Worker
 * thread count and the request deadline are deliberately excluded:
 * results are thread-count-deterministic, and a deadline changes
 * whether a result exists, never what it is.
 *
 * Validation never calls the engine's fatal paths: everything a client
 * could get wrong (unknown workload atom, non-power-of-two geometry,
 * out-of-range search knobs, "trace:" atoms — the server refuses to
 * open client-named files) is rejected with ErrorCode::Protocol before
 * any engine object is constructed. Compute functions report blown
 * deadlines by throwing CacError with ErrorCode::Timeout.
 */

#ifndef CAC_SERVE_ADVISOR_HH
#define CAC_SERVE_ADVISOR_HH

#include <cstdint>
#include <map>
#include <string>

#include "common/error.hh"
#include "scenario/scenario.hh"
#include "serve/protocol.hh"

namespace cac::serve
{

/** Bounds on client-settable search knobs (validated at parse time). */
constexpr std::size_t kMaxPolyStarts = 64;
constexpr std::size_t kMaxRandomSeeds = 64;
constexpr unsigned kMaxTopN = 64;
constexpr unsigned kMaxDeadlineMs = 10 * 60 * 1000;
/**
 * Records built per workload program (the label's n=): four times the
 * largest n any documented run uses, so one request cannot make the
 * server allocate gigabytes.
 */
constexpr std::size_t kMaxWorkloadRecords = 4 * 1000 * 1000;

/** One validated ANALYZE or RECOMMEND request. */
struct AdvisorRequest
{
    MsgType kind = MsgType::Recommend; ///< Analyze or Recommend

    /** Parsed workload ("mix:" grammar; bare atoms auto-wrapped). */
    ScenarioSpec workload;

    // Geometry (RECOMMEND candidates / ANALYZE OrgSpec overrides).
    std::uint64_t sizeBytes = 8 * 1024;
    std::uint64_t blockBytes = 32;
    unsigned ways = 2; ///< RECOMMEND only; ANALYZE ways come from org

    // ANALYZE: the organization label to measure (OrgRegistry).
    std::string org = "a2-Hp-Sk";

    // RECOMMEND: search-space knobs (see analysis/index_search.hh).
    std::size_t polyStarts = 8;
    std::size_t randomSeeds = 4;
    std::uint64_t seed = 1;
    bool includeBaselines = true;
    unsigned inputBits = 0; ///< 0 = auto: max(setBits, 14)
    unsigned topN = 5;      ///< ranked rows in the response

    unsigned deadlineMs = 0; ///< per-cell deadline (0 = none)
};

/**
 * Parse and validate a request payload. @p kind must be Analyze or
 * Recommend. Returns ErrorCode::Protocol (with a diagnostic naming the
 * offending key) on unknown workloads, invalid geometry, "trace:"
 * atoms, workloads over kMaxWorkloadRecords per program, or
 * out-of-range knobs; on success fills @p request.
 */
Error parseAdvisorRequest(MsgType kind,
                          const std::map<std::string, std::string> &kv,
                          AdvisorRequest &request);

/**
 * Fully-explicit re-rendering of a parsed workload: programs in
 * schedule order plus every ScenarioConfig option in a fixed order.
 * Equal workloads render equal strings however they were spelled.
 */
std::string canonicalWorkload(const ScenarioSpec &spec);

/** The memoization key (see the file comment for what it encodes). */
std::string canonicalKey(const AdvisorRequest &request);

/**
 * Execute @p request on @p threads workers and render the response
 * payload (key=value lines, docs/SERVICE.md lists them). Throws
 * CacError with ErrorCode::Timeout when the deadline killed the cell
 * (ANALYZE) or the ranking's reference/top rows (RECOMMEND).
 */
std::string computeAdvice(const AdvisorRequest &request,
                          unsigned threads);

} // namespace cac::serve

#endif // CAC_SERVE_ADVISOR_HH
