/**
 * @file
 * SweepRunner: the simulation engine behind every (target x workload)
 * comparison — Figure 1 stride sweeps, the miss-ratio grids, the
 * Table 2/3 IPC tables, the section 3.3 hole experiments, and
 * cac_sim --compare.
 *
 * A sweep is a grid: each registered workload is run against a fresh
 * instance of each registered simulation target (a functional cache, a
 * two-level hierarchy, or the out-of-order CPU stack — see
 * core/sim_target.hh). Cells are independent, so the runner executes
 * them on a std::thread pool; every thread builds its own target
 * instances and drives them through the accessBatch()/replay() fast
 * paths. Results come back in a deterministic order — workloads in
 * insertion order, targets in insertion order within each workload —
 * regardless of the thread count.
 *
 * Workloads come in three forms: in-memory address streams (optionally
 * produced by a generator, materialized once per run), in-memory
 * instruction traces, and *streamed* CACTRC01/CACTRC02 trace files,
 * replayed through a chunked TraceReader so memory stays bounded by the
 * chunk size however long the trace is.
 *
 * Row replay: the unit of parallel work is a (workload, target group)
 * task. A streamed row is split into ceil(threads / rows) contiguous
 * groups of targets (so every worker has work); each task opens ONE
 * reader and replays every decoded chunk into each target of its group
 * before decoding the next chunk, so a trace is read, checked and
 * unpacked once per group instead of once per cell — the one-pass,
 * many-caches scheme of trace-driven simulation. In-memory and
 * scenario rows run one target per task. A task builds its targets in
 * grid order and finishes, observes and destroys them in reverse, so
 * the spans of a row's cells nest on the worker thread.
 *
 * Resilience: a cell that fails — damaged trace under the strict
 * policy, a worker exception, or a blown per-cell deadline
 * (setCellDeadline()) — is quarantined: its SweepCell comes back with
 * failed/error set and zeroed stats, and every other cell, its row
 * siblings included, still runs to completion. Damage found by a
 * row's shared reader fails (strict) or degrades (skip/resync) every
 * cell of the group, exactly as a private reader per cell would.
 * Cells reading under Skip/Resync (setReadOptions()) complete with
 * exact drop totals in SweepCell::read; sweepCsv() adds
 * dropped_records/status columns exactly when some cell was degraded
 * or failed, so healthy sweeps keep the historical column set and
 * degraded results are never silently reported as exact.
 */

#ifndef CAC_CORE_SWEEP_HH
#define CAC_CORE_SWEEP_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_model.hh"
#include "core/registry.hh"
#include "core/sim_target.hh"
#include "obs/window.hh"
#include "scenario/scenario.hh"
#include "trace/io.hh"
#include "trace/record.hh"

namespace cac
{

/** One (workload, target) result cell. */
struct SweepCell
{
    std::string workload;  ///< workload name
    std::string org;       ///< target label
    std::string cacheName; ///< the target's name() for reports
    /** Functional stats of the primary level (same as target.l1). */
    CacheStats stats;
    /** Full per-target stats (hierarchy and CPU sections when valid). */
    TargetStats target;
    /**
     * Per-program attribution, populated for scenario workloads only
     * (one entry per co-scheduled program, in schedule order).
     */
    std::vector<ScenarioProgramStats> programs;

    /**
     * Per-core attribution, populated for MultiCore targets only
     * (one entry per core, core order; a copy of target.mc.cores).
     */
    std::vector<McCoreStats> cores;

    /**
     * True when this cell did not produce usable stats (strict-policy
     * damage, worker exception, blown deadline); @ref error has the
     * diagnostic. The rest of the grid is unaffected.
     */
    bool failed = false;

    /** Structured failure when @ref failed (code None otherwise). */
    Error error;

    /**
     * Degradation totals from this cell's trace reader (streamed
     * workloads under Skip/Resync; all-zero for healthy cells).
     */
    ReadStats read;

    /**
     * Windowed miss-ratio/conflict time series, populated
     * when the runner has an observation window (setObsWindow());
     * empty otherwise. Deterministic for any thread count.
     */
    std::vector<obs::ObsWindow> windows;
};

/** Grid executor for (target x workload) sweeps. */
class SweepRunner
{
  public:
    /** Build a fresh cache instance (one per cell). */
    using OrgBuilder = std::function<std::unique_ptr<CacheModel>()>;

    /** Build a fresh simulation target (one per cell). */
    using TargetBuilder = std::function<std::unique_ptr<SimTarget>()>;

    /**
     * Post-cell hook: observe the finished target before it is
     * destroyed (see setCellObserver()).
     */
    using CellObserver =
        std::function<void(const SweepCell &cell, SimTarget &target)>;

    /**
     * @param threads worker count for run(); 1 executes inline. Values
     *        above the cell count are clamped.
     */
    explicit SweepRunner(unsigned threads = 1);

    void setThreads(unsigned threads);
    unsigned threads() const { return threads_; }

    /**
     * Reader configuration (policy, checksum verification, fault
     * injection) for every streamed trace-file cell added *without* a
     * per-workload override. chunkRecords here is ignored — the
     * workload's own chunk size wins.
     */
    void setReadOptions(const TraceReaderOptions &options)
    {
        read_options_ = options;
    }

    const TraceReaderOptions &readOptions() const
    {
        return read_options_;
    }

    /**
     * Soft per-cell deadline in milliseconds (0 = none). A cell is
     * charged the time of its own target calls plus the decode of the
     * chunks its row's shared reader handed it — not the time its row
     * siblings spend. Checked cooperatively between replay
     * chunks/batches, so a cell overruns by at most one chunk before
     * it is cancelled with a Timeout error — the rest of the grid,
     * its row siblings included, still completes.
     */
    void setCellDeadline(unsigned deadline_ms)
    {
        cell_deadline_ms_ = deadline_ms;
    }

    unsigned cellDeadline() const { return cell_deadline_ms_; }

    /**
     * Windowed telemetry: sample each cell's target every
     * @p accesses accesses (0 = off, the default) and return the
     * per-window time series in SweepCell::windows. Sampling happens
     * at chunk boundaries (see obs/window.hh), so in-memory workloads
     * switch to bounded slices while a window is set.
     */
    void setObsWindow(std::uint64_t accesses)
    {
        obs_window_ = accesses;
    }

    std::uint64_t obsWindow() const { return obs_window_; }

    /** Spec handed to registry-built targets added after this. */
    void setSpec(const OrgSpec &spec) { spec_.org = spec; }
    const OrgSpec &spec() const { return spec_.org; }

    /** Full target spec (hierarchy / CPU parameters included). */
    void setTargetSpec(const TargetSpec &spec) { spec_ = spec; }
    const TargetSpec &targetSpec() const { return spec_; }

    /**
     * Add a registry target under the current spec: an organization
     * label or an extended "2lvl:" / "cpu:" target label.
     */
    void addTarget(const std::string &label);

    /**
     * Add a custom target. @p build is called once per cell, from
     * worker threads, and must be safe to call concurrently. The
     * targets of one streamed-row task are alive at the same time on
     * one thread; a target that throws fails only its own cell.
     */
    void addTarget(const std::string &label, TargetBuilder build);

    /** Alias of addTarget(label) — the historical name. */
    void addOrg(const std::string &label);

    /** Add several registry targets under the current spec. */
    void addOrgs(const std::vector<std::string> &labels);

    /** Add a custom single-level organization (wrapped in CacheTarget). */
    void addOrg(const std::string &label, OrgBuilder build);

    /** Add a load-only address-stream workload. */
    void addAddressWorkload(const std::string &name,
                            std::vector<std::uint64_t> addrs);

    /**
     * Add an address-stream workload produced on demand. run()
     * materializes the stream exactly once per execution — before the
     * worker fan-out, on the calling thread — into a shared immutable
     * buffer that every target cell reads, so an N-target grid pays one
     * generation instead of N. Note the footprint trade-off: all
     * generator streams are resident simultaneously for the duration of
     * run(), so bound (workload count x stream bytes) to your memory
     * budget when sizing huge grids.
     */
    void addAddressWorkload(
        const std::string &name,
        std::function<std::vector<std::uint64_t>()> generate);

    /** Add an instruction-trace workload (whole trace in memory). */
    void addTraceWorkload(const std::string &name, Trace trace);

    /** Add a shared instruction-trace workload without copying it. */
    void addTraceWorkload(const std::string &name,
                          std::shared_ptr<const Trace> trace);

    /**
     * Add a *streamed* instruction-trace workload: the CACTRC01/02
     * file at @p path is replayed in @p chunk_records-sized chunks,
     * one TraceReader per target group of the row (see the file
     * comment), so the trace is never resident in memory.
     * Stats-identical to loading the trace and calling
     * addTraceWorkload(). The header is validated here (fatal on a
     * missing or malformed file); damage discovered mid-replay fails
     * or degrades the row's cells per the read policy.
     */
    void addTraceFileWorkload(
        const std::string &name, const std::string &path,
        std::size_t chunk_records = kDefaultTraceChunkRecords);

    /**
     * Streamed trace-file workload with its own reader configuration
     * (overrides setReadOptions() for this workload only): policy,
     * checksum verification, fault injection, chunk size.
     */
    void addTraceFileWorkload(const std::string &name,
                              const std::string &path,
                              const TraceReaderOptions &options);

    /**
     * Add a multiprogrammed scenario workload (scenario/scenario.hh):
     * every cell replays the shared composed trace segment by segment
     * under the scenario's context-switch policy, and its SweepCell
     * carries the per-program attribution rows. @p chunk_records > 0
     * feeds each segment in bounded chunks (the streamed form) —
     * stats-identical to whole-segment replay.
     */
    void addScenarioWorkload(const std::string &name,
                             std::shared_ptr<const Scenario> scenario,
                             std::size_t chunk_records = 0);

    /**
     * Add a scenario straight from its "mix:" label; fatal (with the
     * grammar diagnostic) on a malformed label. Drivers that want a
     * soft error parse with parseScenarioLabel() first.
     */
    void addScenarioWorkload(const std::string &label);

    /**
     * Install a hook run once per cell, after the target finished its
     * workload and its SweepCell row was assembled but before the
     * target instance is destroyed. This is how callers harvest
     * target-specific state the unified TargetStats row cannot carry —
     * the analysis layer pulls per-set ConflictProfiles out of
     * profiled targets this way. The observer runs on worker threads
     * (concurrently for different tasks; within one streamed-row task,
     * in reverse grid order) and must synchronize its own state; it is
     * not called for failed cells. Pass nullptr to remove.
     */
    void setCellObserver(CellObserver observer)
    {
        observer_ = std::move(observer);
    }

    std::size_t numOrgs() const { return targets_.size(); }
    std::size_t numWorkloads() const { return workloads_.size(); }

    /** Total number of grid cells. */
    std::size_t numCells() const
    {
        return targets_.size() * workloads_.size();
    }

    /**
     * Execute the grid. Returns one cell per (workload, target) pair,
     * workload-major in insertion order; the result is identical for
     * any thread count.
     */
    std::vector<SweepCell> run() const;

  private:
    struct Target
    {
        std::string label;
        TargetBuilder build;
    };

    struct Workload
    {
        std::string name;
        /** Exactly one of the five sources is set. */
        std::shared_ptr<const std::vector<std::uint64_t>> addrs;
        std::function<std::vector<std::uint64_t>()> generate;
        std::shared_ptr<const Trace> trace;
        std::string tracePath; ///< streamed CACTRC01/02 file
        std::shared_ptr<const Scenario> scenario;
        std::size_t chunkRecords = kDefaultTraceChunkRecords;
        /** Scenario chunking (0 = whole segments). */
        std::size_t scenarioChunkRecords = 0;
        /** Per-workload reader override (else the runner's). */
        std::optional<TraceReaderOptions> read;
    };

    /** Shared immutable address buffer, one per workload slot. */
    using SharedAddrs =
        std::shared_ptr<const std::vector<std::uint64_t>>;

    /**
     * Materialize every generator workload once (called by run()
     * before the fan-out); slots for non-generator workloads are null.
     */
    std::vector<SharedAddrs> materializeWorkloads() const;

    /**
     * One unit of parallel work: targets [first, first + count) of
     * workload row `workload`. Streamed rows split into groups of
     * several targets that share one reader; every other row runs one
     * target per task.
     */
    struct Task
    {
        std::size_t workload;
        std::size_t first;
        std::size_t count;
    };

    /** Per-cell state while a task runs (defined in sweep.cc). */
    struct CellRun;

    /** Split the grid into tasks (see planTasks() in sweep.cc). */
    std::vector<Task> planTasks() const;

    /** Execute @p task, writing its cells into out[0..task.count). */
    void runTask(const Task &task,
                 const std::vector<SharedAddrs> &materialized,
                 SweepCell *out) const;

    /**
     * Streamed row replay: one TraceReader for the group; each decoded
     * chunk is replayed into every live cell before the next decode.
     */
    void replayRow(const Workload &workload,
                   std::vector<CellRun> &runs) const;

    /** Feed an in-memory or scenario workload to a one-target task. */
    void feedCell(const Workload &workload, CellRun &run,
                  const SharedAddrs &materialized) const;

    /** finish() the target and assemble its SweepCell; runs observer_. */
    void finishCell(CellRun &run) const;

    unsigned threads_;
    TargetSpec spec_;
    CellObserver observer_;
    std::vector<Target> targets_;
    std::vector<Workload> workloads_;
    TraceReaderOptions read_options_;
    unsigned cell_deadline_ms_ = 0;
    std::uint64_t obs_window_ = 0;
};

/**
 * Render sweep results as CSV (header + one line per cell), for
 * machine-readable sweep output (cac_sim --csv). Hierarchy and CPU
 * columns (l2_miss_pct, holes, inclusion_invalidates, ipc, cycles) are
 * empty for targets they do not apply to. When any cell was degraded
 * or failed, two extra columns (dropped_records, status) are appended
 * to every row — healthy sweeps keep the historical column set
 * byte-for-byte.
 */
std::string sweepCsv(const std::vector<SweepCell> &cells);

/**
 * Render scenario sweep results as CSV: one line per (cell, program)
 * with the per-program attribution, then one "<all>" aggregate line
 * per cell. Deterministic for any thread count, so CI can diff it.
 */
std::string scenarioCsv(const std::vector<SweepCell> &cells);

} // namespace cac

#endif // CAC_CORE_SWEEP_HH
