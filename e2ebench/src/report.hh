/**
 * @file
 * Shared plumbing of the end-to-end benchmark: run options, the
 * per-run outcome (operation counts, correctness, named metrics),
 * order statistics, the simulated-statistics digest, and host
 * provenance.
 *
 * Every number the benchmark reports is host time or an exact
 * simulated count; nothing here converts to simulated time.
 */

#ifndef E2E_REPORT_HH
#define E2E_REPORT_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cache/cache_model.hh"
#include "core/sim_target.hh"

namespace e2e
{

using Clock = std::chrono::steady_clock;

/** Seconds elapsed between two clock readings. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Nanoseconds elapsed between two clock readings. */
inline std::int64_t
nanosBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** Command-line options of one benchmark run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for generated inputs and the trace artifact. */
    std::string dataDir;
};

/** One reported metric value. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** Name -> metric, printed in name order. */
using Metrics = std::map<std::string, Metric>;

/**
 * What one run observed: operations attempted and failed, whether
 * every output check passed, and the metrics it measured.
 */
class Outcome
{
  public:
    /**
     * Count one operation. @p ok is the result of the checks on its
     * output; a failed operation is logged with @p what and marks the
     * run incorrect.
     */
    void op(bool ok, const std::string &what = std::string());

    /**
     * Record a check that belongs to no single operation (a grid-wide
     * comparison, a repeat's digest, a probe). A failed check marks the
     * run incorrect without counting a failed operation.
     */
    void check(bool ok, const std::string &what);

    void set(const std::string &name, double value,
             const std::string &unit);
    bool has(const std::string &name) const;

    bool correct() const { return correct_; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const Metrics &metrics() const { return metrics_; }
    const std::vector<std::string> &problems() const { return problems_; }

  private:
    bool correct_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    Metrics metrics_;
    std::vector<std::string> problems_;
};

/**
 * The @p q quantile (0..1) of @p values with linear interpolation
 * between order statistics; 0 for an empty sample.
 */
double quantile(std::vector<double> values, double q);

inline double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

/** FNV-1a digest over simulated statistics. */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(const std::string &s);
    void add(const cac::CacheStats &s);
    void add(const cac::TargetStats &s);
    std::uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    std::uint64_t h_ = 1469598103934665603ull;
};

/** Memory records (loads + stores) in @p trace. */
std::uint64_t memRecords(const cac::Trace &trace);

/** Host facts that let numbers from two machines be compared. */
struct Provenance
{
    unsigned nproc = 0;
    std::string cpuModel;
    std::string loadStart;
    std::string buildType;
    std::string simdDispatch;
    std::string compiler;
    std::string gitDescribe;
    bool obsCompiled = true;
};

/** Capture provenance now (load average at start). */
Provenance captureProvenance();

/** The current 1/5/15-minute load average ("0.12 0.30 0.41"). */
std::string loadAverage();

/** Peak resident set size of this process, in MiB. */
double peakRssMiB();

/** One "key=value" provenance line for the report. */
std::string provenanceLine(const Provenance &p);

} // namespace e2e

#endif // E2E_REPORT_HH
