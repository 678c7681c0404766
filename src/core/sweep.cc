#include "core/sweep.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <utility>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "obs/obs.hh"

namespace cac
{

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * Cooperative per-cell deadline. A cell is charged the wall time of
 * its own target calls plus the decode of every chunk its row's shared
 * reader handed it (what a private reader would have cost it), never
 * its row siblings' work. check() throws a Timeout CacError once the
 * charge exceeds the budget; callers invoke it between chunks/batches,
 * so a runaway cell is cancelled at the next chunk boundary instead of
 * hanging the sweep.
 */
class CellDeadline
{
  public:
    explicit CellDeadline(unsigned ms = 0) : ms_(ms) {}

    /** Add @p d to the cell's charge. */
    void
    charge(Clock::duration d)
    {
        spent_ += d;
    }

    /** Run @p f, charging its wall time when a deadline is set. */
    template <typename F>
    void
    timed(F &&f)
    {
        if (ms_ == 0) {
            f();
            return;
        }
        const Clock::time_point t0 = Clock::now();
        f();
        spent_ += Clock::now() - t0;
    }

    void
    check(const std::string &what) const
    {
        if (ms_ == 0)
            return;
        if (spent_ > std::chrono::milliseconds(ms_)) {
            throw CacError(Error::make(
                ErrorCode::Timeout,
                what + ": cell exceeded its " + std::to_string(ms_)
                    + " ms deadline"));
        }
    }

  private:
    unsigned ms_;
    Clock::duration spent_{};
};

/** Batch size for deadline checks on in-memory workloads. */
constexpr std::size_t kDeadlineBatch = 65536;

} // anonymous namespace

/**
 * One cell of a task in flight: its result slot, its target and the
 * per-cell machinery (deadline, window sampler, sweep.cell span) that
 * a row's cells keep separately while they share one reader.
 */
struct SweepRunner::CellRun
{
    SweepCell *cell = nullptr;
    std::string where; ///< "workload x target", for diagnostics
    std::unique_ptr<SimTarget> target;
    CellDeadline deadline;
    std::optional<obs::WindowSampler> sampler;
    std::optional<obs::ScopedSpan> span;

    /**
     * Mark the cell failed with @p error. Its stats are zeroed once
     * the task ends; it receives no further chunks.
     */
    void
    fail(Error error)
    {
        cell->failed = true;
        cell->error = std::move(error);
    }

    /**
     * Run @p f under this cell's quarantine: whatever it throws —
     * strict-policy damage, a blown deadline, a worker exception —
     * lands in the cell's failed/error fields and the rest of the
     * task keeps going. No-op once the cell has failed.
     */
    template <typename F>
    void
    contain(F &&f)
    {
        if (cell->failed)
            return;
        try {
            f();
        } catch (const CacError &e) {
            fail(e.err());
        } catch (const std::exception &e) {
            fail(Error::make(ErrorCode::WorkerFailed,
                             where + ": " + e.what()));
        } catch (...) {
            fail(Error::make(ErrorCode::WorkerFailed,
                             where + ": unknown exception"));
        }
    }
};

SweepRunner::SweepRunner(unsigned threads)
{
    setThreads(threads);
}

void
SweepRunner::setThreads(unsigned threads)
{
    threads_ = threads > 0 ? threads : 1;
}

void
SweepRunner::addTarget(const std::string &label)
{
    if (!OrgRegistry::global().knownTarget(label))
        fatal("unknown simulation target '%s'", label.c_str());
    // Capture the spec by value: later setSpec() calls must not affect
    // targets already added.
    addTarget(label, [label, spec = spec_] {
        return OrgRegistry::global().buildTarget(label, spec);
    });
}

void
SweepRunner::addTarget(const std::string &label, TargetBuilder build)
{
    CAC_ASSERT(build != nullptr);
    targets_.push_back(Target{label, std::move(build)});
}

void
SweepRunner::addOrg(const std::string &label)
{
    addTarget(label);
}

void
SweepRunner::addOrgs(const std::vector<std::string> &labels)
{
    for (const auto &label : labels)
        addTarget(label);
}

void
SweepRunner::addOrg(const std::string &label, OrgBuilder build)
{
    CAC_ASSERT(build != nullptr);
    addTarget(label, [build = std::move(build)] {
        return std::make_unique<CacheTarget>(build());
    });
}

void
SweepRunner::addAddressWorkload(const std::string &name,
                                std::vector<std::uint64_t> addrs)
{
    Workload w;
    w.name = name;
    w.addrs = std::make_shared<const std::vector<std::uint64_t>>(
        std::move(addrs));
    workloads_.push_back(std::move(w));
}

void
SweepRunner::addAddressWorkload(
    const std::string &name,
    std::function<std::vector<std::uint64_t>()> generate)
{
    CAC_ASSERT(generate != nullptr);
    Workload w;
    w.name = name;
    w.generate = std::move(generate);
    workloads_.push_back(std::move(w));
}

void
SweepRunner::addTraceWorkload(const std::string &name, Trace trace)
{
    addTraceWorkload(name, std::make_shared<const Trace>(std::move(trace)));
}

void
SweepRunner::addTraceWorkload(const std::string &name,
                              std::shared_ptr<const Trace> trace)
{
    CAC_ASSERT(trace != nullptr);
    Workload w;
    w.name = name;
    w.trace = std::move(trace);
    workloads_.push_back(std::move(w));
}

void
SweepRunner::addTraceFileWorkload(const std::string &name,
                                  const std::string &path,
                                  std::size_t chunk_records)
{
    // Validate the header once, up front, so a bad path fails at add
    // time instead of inside a worker thread mid-run.
    TraceReader probe(path, chunk_records);
    if (!probe.ok())
        fatal("%s", probe.error().c_str());

    Workload w;
    w.name = name;
    w.tracePath = path;
    w.chunkRecords = chunk_records > 0 ? chunk_records : 1;
    workloads_.push_back(std::move(w));
}

void
SweepRunner::addTraceFileWorkload(const std::string &name,
                                  const std::string &path,
                                  const TraceReaderOptions &options)
{
    // Probe without the workload's injection/policy: add-time failures
    // are caller configuration errors, not simulated storage faults.
    TraceReader probe(path);
    if (!probe.ok())
        fatal("%s", probe.error().c_str());

    Workload w;
    w.name = name;
    w.tracePath = path;
    w.chunkRecords =
        options.chunkRecords > 0 ? options.chunkRecords : 1;
    w.read = options;
    workloads_.push_back(std::move(w));
}

void
SweepRunner::addScenarioWorkload(const std::string &name,
                                 std::shared_ptr<const Scenario> scenario,
                                 std::size_t chunk_records)
{
    CAC_ASSERT(scenario != nullptr);
    Workload w;
    w.name = name;
    w.scenario = std::move(scenario);
    w.scenarioChunkRecords = chunk_records;
    workloads_.push_back(std::move(w));
}

void
SweepRunner::addScenarioWorkload(const std::string &label)
{
    addScenarioWorkload(label, buildScenario(label));
}

std::vector<SweepRunner::SharedAddrs>
SweepRunner::materializeWorkloads() const
{
    std::vector<SharedAddrs> materialized(workloads_.size());
    for (std::size_t i = 0; i < workloads_.size(); ++i) {
        const Workload &w = workloads_[i];
        if (w.generate && !w.addrs && !w.trace) {
            materialized[i] =
                std::make_shared<const std::vector<std::uint64_t>>(
                    w.generate());
        }
    }
    return materialized;
}

std::vector<SweepRunner::Task>
SweepRunner::planTasks() const
{
    // Streamed rows split into ceil(threads / rows) contiguous target
    // groups (at most one per target), so every worker has work while
    // each trace is still decoded once per group. The count depends
    // on nothing but the thread and row counts, and grouping never
    // changes a result, only which cells share a reader.
    const std::size_t rows = workloads_.size();
    const std::size_t orgs = targets_.size();
    const std::size_t groups = std::min<std::size_t>(
        orgs, std::max<std::size_t>(1, (threads_ + rows - 1) / rows));
    std::vector<Task> tasks;
    for (std::size_t wi = 0; wi < rows; ++wi) {
        if (workloads_[wi].tracePath.empty()) {
            for (std::size_t t = 0; t < orgs; ++t)
                tasks.push_back(Task{wi, t, 1});
            continue;
        }
        for (std::size_t g = 0; g < groups; ++g) {
            const std::size_t first = g * orgs / groups;
            const std::size_t last = (g + 1) * orgs / groups;
            tasks.push_back(Task{wi, first, last - first});
        }
    }
    return tasks;
}

void
SweepRunner::replayRow(const Workload &workload,
                       std::vector<CellRun> &runs) const
{
    // One reader for the whole group: each decoded chunk goes to every
    // live cell before the next chunk is decoded.
    TraceReaderOptions options =
        workload.read ? *workload.read : read_options_;
    options.chunkRecords = workload.chunkRecords;
    TraceReader reader(workload.tracePath, options);
    if (!reader.ok()) {
        for (CellRun &run : runs) {
            if (!run.cell->failed)
                run.fail(reader.errorInfo());
        }
        return;
    }
    const bool clocked = cell_deadline_ms_ > 0;
    std::size_t live = static_cast<std::size_t>(
        std::count_if(runs.begin(), runs.end(),
                      [](const CellRun &run) { return !run.cell->failed; }));
    while (live > 0) {
        const Clock::time_point t0 =
            clocked ? Clock::now() : Clock::time_point{};
        const std::vector<TraceRecord> &chunk = reader.next();
        if (chunk.empty())
            break;
        const Clock::duration decode =
            clocked ? Clock::now() - t0 : Clock::duration{};
        live = 0;
        for (CellRun &run : runs) {
            run.contain([&] {
                run.deadline.charge(decode);
                run.deadline.timed([&] {
                    run.target->replay(chunk.data(), chunk.size());
                });
                run.deadline.check(run.where);
                if (run.sampler)
                    run.sampler->sample();
            });
            live += run.cell->failed ? 0 : 1;
        }
    }
    // Damage the shared reader found fails (strict) or degrades
    // (skip/resync) every cell still live, exactly as each cell's
    // private reader would have.
    for (CellRun &run : runs) {
        if (run.cell->failed)
            continue;
        run.cell->read = reader.readStats();
        if (!reader.ok())
            run.fail(reader.errorInfo());
    }
}

void
SweepRunner::feedCell(const Workload &workload, CellRun &run,
                      const SharedAddrs &materialized) const
{
    SimTarget &target = *run.target;
    // Feed in slices only when a deadline or sampler wants mid-stream
    // checks; the single-call fast path stays the default.
    const bool sliced = cell_deadline_ms_ > 0 || run.sampler.has_value();
    if (workload.scenario) {
        // Multiprogrammed replay: segments + switch policy, with the
        // per-program attribution landing in the cell. Sliced, the
        // sampler is poked at every chunk and segment boundary, and the
        // deadline is charged and checked once per kDeadlineBatch
        // records (segments can be a single record long) and at the end.
        const bool clocked = cell_deadline_ms_ > 0;
        std::size_t unchecked = 0;
        Clock::time_point mark = Clock::now();
        const auto charge = [&] {
            const Clock::time_point now = Clock::now();
            run.deadline.charge(now - mark);
            run.deadline.check(run.where);
            mark = now;
            unchecked = 0;
        };
        std::size_t chunk = workload.scenarioChunkRecords;
        std::function<void(std::size_t)> at_boundary;
        if (sliced) {
            chunk = chunk > 0 ? chunk : kDeadlineBatch;
            at_boundary = [&](std::size_t records) {
                if (run.sampler)
                    run.sampler->sample();
                if ((unchecked += records) >= kDeadlineBatch && clocked)
                    charge();
            };
        }
        run.cell->programs =
            workload.scenario->replayInto(target, chunk, at_boundary)
                .programs;
        if (clocked)
            charge();
    } else if (workload.trace) {
        const Trace &trace = *workload.trace;
        const std::size_t batch = sliced ? kDeadlineBatch : trace.size();
        for (std::size_t at = 0; at < trace.size(); at += batch) {
            const std::size_t n = std::min(batch, trace.size() - at);
            run.deadline.timed(
                [&] { target.replay(trace.data() + at, n); });
            run.deadline.check(run.where);
            if (run.sampler)
                run.sampler->sample();
        }
    } else {
        const std::vector<std::uint64_t> &addrs =
            workload.addrs ? *workload.addrs : *materialized;
        const std::size_t batch = sliced ? kDeadlineBatch : addrs.size();
        for (std::size_t at = 0; at < addrs.size(); at += batch) {
            const std::size_t n = std::min(batch, addrs.size() - at);
            run.deadline.timed(
                [&] { target.accessBatch(addrs.data() + at, n, false); });
            run.deadline.check(run.where);
            if (run.sampler)
                run.sampler->sample();
        }
    }
}

void
SweepRunner::finishCell(CellRun &run) const
{
    SimTarget &target = *run.target;
    SweepCell &cell = *run.cell;
    target.finish();
    cell.target = target.stats();
    cell.stats = cell.target.l1;
    if (cell.target.hasMultiCore)
        cell.cores = cell.target.mc.cores;
    if (run.sampler) {
        run.sampler->finish();
        cell.windows = run.sampler->windows();
    }
    if (observer_)
        observer_(cell, target);
}

void
SweepRunner::runTask(const Task &task,
                     const std::vector<SharedAddrs> &materialized,
                     SweepCell *out) const
{
    const Workload &workload = workloads_[task.workload];

    // Open the cells in grid order: build the target, then its
    // sweep.cell span. They close in reverse below, so the spans of a
    // row (and any span a decorator target holds for its lifetime)
    // nest LIFO on this worker thread.
    std::vector<CellRun> runs(task.count);
    for (std::size_t k = 0; k < task.count; ++k) {
        CellRun &run = runs[k];
        const Target &entry = targets_[task.first + k];
        run.cell = &out[k];
        run.cell->workload = workload.name;
        run.cell->org = entry.label;
        run.where = workload.name + " x " + entry.label;
        run.deadline = CellDeadline(cell_deadline_ms_);
        run.contain([&] {
            run.target = entry.build();
            CAC_ASSERT(run.target != nullptr);
            run.cell->cacheName = run.target->name();
            run.span.emplace("sweep", "sweep.cell", run.where);
            // Windowed telemetry: poked at chunk boundaries only, so
            // in-memory workloads switch to bounded slices while it is
            // live (same shape the deadline check already uses).
            if (obs_window_ > 0)
                run.sampler.emplace(*run.target, obs_window_);
        });
    }

    if (!workload.tracePath.empty()) {
        replayRow(workload, runs);
    } else {
        CellRun &run = runs.front();
        run.contain(
            [&] { feedCell(workload, run, materialized[task.workload]); });
    }

    for (std::size_t k = task.count; k-- > 0;) {
        CellRun &run = runs[k];
        run.contain([&] { finishCell(run); });
        run.sampler.reset();
        run.span.reset();
        run.target.reset();
        SweepCell &cell = *run.cell;
        if (cell.failed) {
            cell.stats = CacheStats{};
            cell.target = TargetStats{};
            cell.programs.clear();
            cell.cores.clear();
        }
    }
}

std::vector<SweepCell>
SweepRunner::run() const
{
    const std::size_t cells = numCells();
    std::vector<SweepCell> results(cells);
    if (cells == 0)
        return results;

    // Generator workloads are materialized exactly once, here, before
    // the fan-out: every target cell then reads the same shared
    // immutable stream instead of regenerating it per cell.
    const std::vector<SharedAddrs> materialized = materializeWorkloads();

    // Dynamic work sharing: threads pull the next unclaimed task and
    // write into its cells' slots, so the output order is the grid
    // order no matter how tasks are interleaved in time.
    const std::vector<Task> tasks = planTasks();
    const auto execute = [&](const Task &task) {
        runTask(task, materialized,
                &results[task.workload * targets_.size() + task.first]);
    };
    // Queue wait per task: fan-out start to the moment a worker picks
    // the task up. Recorded as its own span so a trace shows which
    // tasks sat behind long-running ones.
    obs::Tracer &tracer = obs::Tracer::global();
    const bool tracing = tracer.enabled();
    const std::uint64_t fanout_us = tracing ? tracer.nowUs() : 0;
    parallelFor(threads_, tasks.size(), [&](std::size_t i) {
        const Task &task = tasks[i];
        if (tracing) {
            std::string detail = workloads_[task.workload].name + " x "
                + targets_[task.first].label;
            if (task.count > 1) {
                detail +=
                    " .. " + targets_[task.first + task.count - 1].label;
            }
            tracer.record("sweep", "sweep.queue_wait", fanout_us,
                          tracer.nowUs(), std::move(detail));
        }
        execute(task);
    });
    return results;
}

std::string
sweepCsv(const std::vector<SweepCell> &cells)
{
    // The historical column set stays byte-identical for healthy
    // sweeps (CI diffs golden CSVs against it); the resilience columns
    // appear exactly when they carry information.
    bool extended = false;
    bool multicore = false;
    for (const SweepCell &cell : cells) {
        if (cell.failed || cell.read.degraded())
            extended = true;
        if (cell.target.hasMultiCore)
            multicore = true;
    }

    std::string out =
        "workload,organization,cache,loads,stores,load_misses,"
        "store_misses,load_miss_pct,miss_pct,l2_miss_pct,holes,"
        "inclusion_invalidates,ipc,cycles";
    if (multicore) {
        out += ",cores,intercore_evictions,intercore_conflict_misses";
    }
    if (extended)
        out += ",dropped_records,status";
    out += '\n';
    char numbers[224];
    for (const SweepCell &cell : cells) {
        std::snprintf(numbers, sizeof(numbers),
                      ",%llu,%llu,%llu,%llu,%.4f,%.4f",
                      static_cast<unsigned long long>(cell.stats.loads),
                      static_cast<unsigned long long>(cell.stats.stores),
                      static_cast<unsigned long long>(
                          cell.stats.loadMisses),
                      static_cast<unsigned long long>(
                          cell.stats.storeMisses),
                      100.0 * cell.stats.loadMissRatio(),
                      100.0 * cell.stats.missRatio());
        out += csvField(cell.workload);
        out += ',';
        out += csvField(cell.org);
        out += ',';
        out += csvField(cell.cacheName);
        out += numbers;

        // Hierarchy columns (empty when not applicable).
        if (cell.target.hasHierarchy) {
            std::snprintf(numbers, sizeof(numbers), ",%.4f,%llu,%llu",
                          100.0 * cell.target.l2.missRatio(),
                          static_cast<unsigned long long>(
                              cell.target.holes.holesCreated),
                          static_cast<unsigned long long>(
                              cell.target.holes.inclusionInvalidates));
            out += numbers;
        } else {
            out += ",,,";
        }

        // CPU columns (empty when not applicable).
        if (cell.target.hasCpu) {
            std::snprintf(numbers, sizeof(numbers), ",%.4f,%llu",
                          cell.target.cpu.ipc(),
                          static_cast<unsigned long long>(
                              cell.target.cpu.cycles));
            out += numbers;
        } else {
            out += ",,";
        }

        // Multicore columns (present only when the sweep has mc cells,
        // empty on non-mc rows).
        if (multicore) {
            if (cell.target.hasMultiCore) {
                const MultiCoreStats &mc = cell.target.mc;
                std::snprintf(
                    numbers, sizeof(numbers), ",%llu,%llu,%llu",
                    static_cast<unsigned long long>(mc.cores.size()),
                    static_cast<unsigned long long>(
                        mc.totalL2EvictionsByOthers()),
                    static_cast<unsigned long long>(
                        mc.totalInterCoreConflictMisses()));
                out += numbers;
            } else {
                out += ",,,";
            }
        }
        if (extended) {
            std::snprintf(numbers, sizeof(numbers), ",%llu,%s",
                          static_cast<unsigned long long>(
                              cell.read.droppedRecords),
                          cell.failed ? "failed"
                          : cell.read.degraded() ? "degraded"
                                                 : "ok");
            out += numbers;
        }
        out += '\n';
    }
    return out;
}

std::string
scenarioCsv(const std::vector<SweepCell> &cells)
{
    // Like sweepCsv, the historical column set is byte-stable: the
    // multicore columns (and the per-core rows) appear exactly when
    // the sweep contains MultiCore cells.
    bool multicore = false;
    for (const SweepCell &cell : cells) {
        if (cell.target.hasMultiCore)
            multicore = true;
    }

    std::string out =
        "workload,organization,cache,program,asid,records,loads,stores,"
        "load_misses,store_misses,load_miss_pct,miss_pct";
    if (multicore) {
        out += ",intercore_evictions,intercore_conflict_misses";
    }
    out += '\n';
    char numbers[224];
    const auto emit = [&](const SweepCell &cell,
                          const std::string &program,
                          const std::string &asid,
                          std::uint64_t records, const CacheStats &s,
                          const std::string &mc_columns) {
        out += csvField(cell.workload);
        out += ',';
        out += csvField(cell.org);
        out += ',';
        out += csvField(cell.cacheName);
        out += ',';
        out += csvField(program);
        out += ',';
        out += asid;
        std::snprintf(numbers, sizeof(numbers),
                      ",%llu,%llu,%llu,%llu,%llu,%.4f,%.4f",
                      static_cast<unsigned long long>(records),
                      static_cast<unsigned long long>(s.loads),
                      static_cast<unsigned long long>(s.stores),
                      static_cast<unsigned long long>(s.loadMisses),
                      static_cast<unsigned long long>(s.storeMisses),
                      100.0 * s.loadMissRatio(), 100.0 * s.missRatio());
        out += numbers;
        out += mc_columns;
        out += '\n';
    };
    const std::string no_mc = multicore ? ",," : "";
    for (const SweepCell &cell : cells) {
        std::uint64_t records = 0;
        for (const ScenarioProgramStats &p : cell.programs) {
            emit(cell, p.name, std::to_string(p.asid), p.records, p.l1,
                 no_mc);
            records += p.records;
        }
        // Per-core rows: each core's private-L1 stats plus the
        // inter-core eviction and conflict attribution it received.
        for (std::size_t c = 0; c < cell.cores.size(); ++c) {
            const McCoreStats &core = cell.cores[c];
            std::snprintf(
                numbers, sizeof(numbers), ",%llu,%llu",
                static_cast<unsigned long long>(core.l2EvictionsByOthers),
                static_cast<unsigned long long>(
                    core.interCoreConflictMisses));
            emit(cell, "core" + std::to_string(c), "", core.l1.accesses(),
                 core.l1, numbers);
        }
        if (cell.target.hasMultiCore) {
            const MultiCoreStats &mc = cell.target.mc;
            std::snprintf(
                numbers, sizeof(numbers), ",%llu,%llu",
                static_cast<unsigned long long>(
                    mc.totalL2EvictionsByOthers()),
                static_cast<unsigned long long>(
                    mc.totalInterCoreConflictMisses()));
            emit(cell, "<all>", "", records, cell.stats, numbers);
        } else {
            emit(cell, "<all>", "", records, cell.stats, no_mc);
        }
    }
    return out;
}

} // namespace cac
