/**
 * @file
 * The benchmark's workloads and the checks they apply to the
 * program's outputs.
 *
 *  - table_sweep: four seeded Spec95 proxy traces, written as verified
 *    CACTRC02 files and streamed through a 2-worker SweepRunner grid of
 *    the ten functional organizations plus two two-level hierarchies.
 *  - mc_mix: one seeded four-program warm-keep mix, composed in memory
 *    and replayed single-threaded through a two-level hierarchy and
 *    1-, 2- and 4-core coherent systems.
 *
 * Each run fills an Outcome with its end-to-end metrics (untraced
 * run) or its per-layer metrics (traced run).
 */

#ifndef E2E_WORKLOADS_HH
#define E2E_WORKLOADS_HH

#include <memory>
#include <string>
#include <vector>

#include "core/sim_target.hh"
#include "core/sweep.hh"
#include "report.hh"
#include "scenario/scenario.hh"

namespace e2e
{

void runTableSweep(const RunOptions &opts, Outcome &out);
void runMcMix(const RunOptions &opts, Outcome &out);

/** Digest of every simulated statistic of a sweep, in grid order. */
std::string sweepDigest(const std::vector<cac::SweepCell> &cells);

/** Per-core L1 and hole rows of a multicore target sum to its totals. */
bool perCoreRowsSum(const cac::TargetStats &stats);

/** L1, L2 and hole statistics of two targets are identical. */
bool sameHierarchyStats(const cac::TargetStats &a,
                        const cac::TargetStats &b);

/** Inputs the per-layer probe battery measures on. */
struct ProbeInputs
{
    /** The workload's own record stream (a bounded prefix). */
    std::shared_ptr<const cac::Trace> records;
    /** The workload's programs composed as one mix. */
    std::shared_ptr<const cac::Scenario> scenario;
    /** The advisor-request workload label for those programs. */
    std::string adviceLabel;
};

/**
 * Fill every per-layer metric the workload's own traced path did not
 * measure, by calling each layer directly on the workload's inputs.
 */
void runProbes(const ProbeInputs &in, const RunOptions &opts,
               Outcome &out);

/** Every end-to-end metric name, in BENCHMARK.json order. */
const std::vector<std::string> &endToEndNames();

/** Every per-layer metric name, in BENCHMARK.json order. */
const std::vector<std::string> &perLayerNames();

/** Print one human-readable report line (flushed). */
void say(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace e2e

#endif // E2E_WORKLOADS_HH
