/**
 * @file
 * cac_sim — drive a CACTRC01/CACTRC02 trace through any simulation
 * target: a
 * standalone cache organization (functional, miss ratios), a two-level
 * virtual-real hierarchy (holes, Inclusion invalidations) or the full
 * out-of-order CPU model (timing, IPC).
 *
 * All runs go through the simulation engine: target labels resolve via
 * the organization registry's target grammar and the (target x trace)
 * grid executes on a SweepRunner, so --compare parallelizes across
 * targets and one report path covers caches, hierarchies and CPUs.
 *
 * Usage:
 *   cac_sim --trace swim.trc --org a2-Hp-Sk [--size 8192] [--ways 2]
 *   cac_sim --trace swim.trc --org 2lvl:a2-Hp-Sk/a4 --l2-size 1048576
 *   cac_sim --trace swim.trc --org cpu:8k-ipoly-cp-pred
 *   cac_sim --trace swim.trc --compare --threads 4 --csv
 *   cac_sim --trace huge.trc --compare --stream
 *   cac_sim --trace swim.trc --org a2-Hp-Sk --shards 4 [--warmup N]
 *   cac_sim --trace swim.trc --cpu 8k-ipoly-cp-pred
 *   cac_sim --analyze a2-Hp-Sk [--trace swim.trc]
 *   cac_sim --trace swim.trc --search [--threads 4] [--csv]
 *   cac_sim --scenario mix:swim+tomcatv@q=50k,flush [--org a2-Hp-Sk]
 *
 * --stream replays the trace from disk in chunks (TraceReader) instead
 * of loading it, so memory stays flat however long the trace is.
 *
 * --shards K time-shards a single trace across K parallel workers
 * (core/shard_replay.hh): loads/stores are exact, hit/miss counters
 * carry the documented bounded warm-up error, and the result is
 * deterministic at any --threads value. CPU targets replay
 * monolithically (with a note) — cycle state cannot be sliced.
 *
 * --analyze prints the GF(2) conflict analysis of an organization's
 * placement function (rank, null space, per-stride conflict classes,
 * the stride-freeness certificate); with --trace it also measures the
 * profile (per-set occupancy, conflict-miss attribution against a
 * fully-associative shadow, top conflicting pairs).
 *
 * --search grids placement-function candidates (catalog polynomials,
 * seeded random XOR matrices, the conventional baselines) against the
 * trace on the sweep thread pool and ranks them by measured conflict
 * misses, predicted conflict score and XOR fan-in.
 *
 * Reader resilience (docs/RESILIENCE.md), in every mode that reads
 * --trace (--analyze and --search included): --policy picks how damage
 * found mid-trace is handled (strict fail-fast with byte offsets, skip
 * to quarantine bad chunks, resync to scan for the next chunk header),
 * --no-verify disables CACTRC02 payload checksums, and --inject mounts
 * a deterministic fault injector under the reader for chaos testing.
 * A degraded-but-complete run warns with exact drop totals and exits
 * 0; a failed cell prints its structured error and exits 1.
 *
 * Observability (docs/OBSERVABILITY.md): --metrics-out dumps the
 * merged metrics registry plus the windowed miss-ratio/conflict time
 * series as JSON, --trace-out dumps the tracing spans
 * as a Chrome trace-event file (chrome://tracing, Perfetto), and
 * --obs-window sets the time-series window in accesses. Both
 * artifacts embed the run manifest (git describe, compiler, SIMD
 * dispatch, target, seed) that --version prints standalone.
 *
 * --scenario replays a multiprogrammed mix (scenario/scenario.hh
 * grammar: round-robin quantum, cold-flush vs warm-keep, ASID windows,
 * phase shifts) against one target (--org) or the scenario comparison
 * set, reporting per-program and aggregate miss attribution; the
 * aggregate conflict-miss column comes from a ConflictProfiler shadow
 * replaying the identical mixed stream.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "common/cli.hh"
#include "common/logging.hh"
#include "core/cac.hh"
#include "obs/json_util.hh"

namespace
{

using namespace cac;

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  cac_sim --trace FILE --org TARGET [--size BYTES] [--ways N] "
        "[--block BYTES]\n"
        "          [--l2-size BYTES] [--l2-ways N] [--stream]\n"
        "  cac_sim --trace FILE --cpu CONFIG\n"
        "  cac_sim --trace FILE --compare [--threads N] [--csv] "
        "[--stream]\n"
        "  cac_sim --trace FILE (--org TARGET | --compare) --shards K "
        "[--warmup N]\n"
        "  cac_sim --analyze LABEL [--trace FILE] [--stream] "
        "[--size BYTES] [--ways N]\n"
        "  cac_sim --trace FILE --search [--search-polys N] "
        "[--search-random N]\n"
        "          [--seed S] [--threads N] [--csv] [--stream]\n"
        "  cac_sim --scenario MIX [--org TARGET | --compare] "
        "[--threads N] [--csv]\n"
        "          [--stream] [--cores N]\n"
        "  cac_sim --version\n"
        "observability (any simulation mode; docs/OBSERVABILITY.md):\n"
        "  --metrics-out F write counters/histograms and the windowed\n"
        "                  miss-ratio time series as JSON (with run "
        "manifest)\n"
        "  --trace-out F   write tracing spans as Chrome trace-event "
        "JSON\n"
        "                  (load into chrome://tracing or Perfetto)\n"
        "  --obs-window N  time-series window in accesses (default "
        "65536\n"
        "                  when --metrics-out is given)\n"
        "  --version       print the build/run manifest and exit\n"
        "reader options (any mode that reads --trace):\n"
        "  --policy P      damage handling: strict (fail fast, "
        "default), skip\n"
        "                  (quarantine bad chunks), resync (scan for "
        "the next\n"
        "                  valid chunk header); drops are counted, "
        "never silent\n"
        "  --no-verify     skip CACTRC02 payload checksum "
        "verification\n"
        "  --inject SPEC   deterministic fault injection under the "
        "reader\n"
        "                  (seed=N,flip=P,short=P,fail=P,burst=N,"
        "lat=USEC,throw=N)\n"
        "scenarios:\n"
        "  MIX             mix:PROG[+PROG...][@q=N,n=N,phase=N,asid=N,"
        "seed=N,flush|keep]\n"
        "                  PROG: a Spec95 proxy name, strideN, or "
        "trace:PATH\n"
        "targets:\n"
        "  LABEL           functional single-level organization "
        "(table below)\n"
        "  2lvl:L1/L2      two-level virtual-real hierarchy "
        "(L1, L2 org labels)\n"
        "  cpu:CONFIG      out-of-order core (Table-2 config or aN "
        "scheme label)\n"
        "  mc:CxL1/L2      C cores, private L1s over one shared L2\n"
        "  --cores N       rewrite plain org labels to mc:NxLABEL/a4 "
        "(N cores)\n"
        "orgs:\n");
    for (const auto &entry : OrgRegistry::global().entries()) {
        std::fprintf(stderr, "  %-14s %s\n", entry.pattern.c_str(),
                     entry.description.c_str());
    }
    std::fprintf(stderr, "cpu configs:");
    for (const auto &name : CpuConfig::tableConfigNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(1);
}

const char *
argValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        // Diagnose before the usage dump so the mistake is visible even
        // when the usage text scrolls past.
        std::fprintf(stderr, "missing value for '%s'\n", argv[i]);
        usage();
    }
    return argv[++i];
}

/** Format an optional table column ("-" when not applicable). */
std::string
optionalCell(bool valid, double value, int precision)
{
    if (!valid)
        return "-";
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

/** Warn with exact totals when a read of @p what dropped records. */
void
warnDegraded(const std::string &what, const ReadStats &stats)
{
    if (!stats.degraded())
        return;
    warn("%s: degraded read — %llu record(s) dropped (%llu chunk(s), "
         "%llu checksum error(s), %llu resync(s))",
         what.c_str(),
         static_cast<unsigned long long>(stats.droppedRecords),
         static_cast<unsigned long long>(stats.droppedChunks),
         static_cast<unsigned long long>(stats.crcErrors),
         static_cast<unsigned long long>(stats.resyncs));
}

/**
 * Surface per-cell resilience outcomes: failed cells print their
 * structured error and flip the exit code to 1; degraded cells (drops
 * under skip/resync) warn with exact totals but stay successful —
 * the CSV/table output already carries the dropped_records column.
 */
int
reportResilience(const std::vector<SweepCell> &cells)
{
    int rc = 0;
    for (const SweepCell &cell : cells) {
        if (cell.failed) {
            std::fprintf(stderr, "error: %s\n",
                         cell.error.message().c_str());
            rc = 1;
        } else {
            warnDegraded(cell.workload + " x " + cell.org, cell.read);
        }
    }
    return rc;
}

/**
 * Whole-file load under the requested policy. Drops land in @p stats
 * when given (the caller attributes them to its cells), and are
 * warned about here otherwise.
 */
Trace
loadTrace(const std::string &path, const TraceReaderOptions &options,
          ReadStats *stats = nullptr)
{
    ReadStats own;
    Trace trace = readTrace(path, options, stats ? stats : &own);
    if (!stats)
        warnDegraded("'" + path + "'", own);
    return trace;
}

/**
 * Telemetry emission state: where --metrics-out/--trace-out go, the
 * manifest stamped into both artifacts, and the window series
 * harvested from finished sweep cells. File scope keeps the mode
 * functions' signatures clean; cac_sim is one run per process.
 */
struct ObsOutputs
{
    std::string metricsPath;
    std::string tracePath;
    std::uint64_t window = 0; ///< --obs-window (accesses), 0 = off
    obs::RunManifest manifest;

    /** One cell's windowed time series, labeled for the artifact. */
    struct CellSeries
    {
        std::string workload;
        std::string org;
        std::vector<obs::ObsWindow> windows;
    };
    std::vector<CellSeries> series;
};

ObsOutputs g_obs;

/** Keep each finished cell's window series for the metrics artifact. */
void
harvestObsWindows(const std::vector<SweepCell> &cells)
{
    for (const SweepCell &cell : cells) {
        if (!cell.windows.empty())
            g_obs.series.push_back({cell.workload, cell.org,
                                    cell.windows});
    }
}

void
writeArtifact(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        warn("cannot write '%s': %s", path.c_str(),
             std::strerror(errno));
        return;
    }
    std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
}

/**
 * Emit the requested telemetry artifacts after the run: the metrics
 * file carries the manifest, the merged registry snapshot and every
 * cell's windowed time series; the trace file is a complete Chrome
 * trace-event document with the manifest under otherData.
 */
void
emitObsArtifacts()
{
    if (!g_obs.metricsPath.empty()) {
        std::string out = "{\n  \"manifest\": ";
        out += obs::manifestJson(g_obs.manifest, 2);
        out += ",\n";
        out += obs::metricsJson(obs::Registry::global().snapshot(), 2);
        out += ",\n  \"windows\": [";
        bool first = true;
        for (const ObsOutputs::CellSeries &s : g_obs.series) {
            out += first ? "\n" : ",\n";
            first = false;
            out += "    {\"workload\": \"" + obs::jsonEscape(s.workload)
                   + "\", \"target\": \"" + obs::jsonEscape(s.org)
                   + "\",\n     \"series\": "
                   + obs::windowsJson(s.windows, 5) + "}";
        }
        out += first ? "]\n" : "\n  ]\n";
        out += "}\n";
        writeArtifact(g_obs.metricsPath, out);
    }
    if (!g_obs.tracePath.empty()) {
        obs::Tracer &tracer = obs::Tracer::global();
        writeArtifact(g_obs.tracePath,
                      obs::chromeTraceJson(tracer.drain(),
                                           tracer.dropped(),
                                           &g_obs.manifest));
    }
}

/**
 * --analyze: print the GF(2) conflict analysis of @p label's placement
 * function; with a trace, also measure its conflict profile.
 */
int
runAnalyze(const std::string &label, const std::string &trace_path,
           const TargetSpec &spec, bool stream,
           const TraceReaderOptions &read_opts)
{
    auto model = makeOrganization(label, spec.org);
    auto *cache = dynamic_cast<SetAssocCache *>(model.get());
    if (cache == nullptr) {
        fatal("--analyze needs an organization with a placement "
              "function ('%s' is not set-associative)",
              label.c_str());
    }
    const unsigned input_bits =
        std::max(spec.org.hashBlockBits, cache->indexFn().setBits());
    const ConflictAnalysis analysis =
        analyzeIndex(cache->indexFn(), input_bits);
    std::printf("%s", analysis.report().c_str());

    if (trace_path.empty())
        return 0;

    // Measured profile: the analysis above only probed the index
    // function, so the model is still cold — reuse it, sharing its
    // compiled plan with the histogram decorator (the function lives
    // on inside the wrapped target).
    const CacheGeometry geometry = model->geometry();
    const IndexPlan plan = cache->indexPlan();
    ConflictProfiler profiler(
        std::make_unique<CacheTarget>(std::move(model)), geometry);
    profiler.attachIndex(plan);

    if (stream) {
        // Chunked replay: the profiler is chunk-invisible, so memory
        // stays bounded however long the trace is.
        TraceReader reader(trace_path, read_opts);
        if (!reader.ok())
            fatal("%s", reader.error().c_str());
        std::printf("\ntrace: %s (%llu instructions, streamed)\n",
                    trace_path.c_str(),
                    static_cast<unsigned long long>(
                        reader.recordCount()));
        replayAll(reader, profiler);
        warnDegraded("'" + trace_path + "'", reader.readStats());
    } else {
        Trace trace = loadTrace(trace_path, read_opts);
        std::printf("\ntrace: %s (%zu instructions)\n",
                    trace_path.c_str(), trace.size());
        profiler.replay(trace.data(), trace.size());
    }
    profiler.finish();
    std::printf("%s", profiler.profile().report().c_str());
    return 0;
}

/**
 * --search: rank placement-function candidates on the trace (catalog
 * polynomials + seeded random matrices + baselines), in parallel.
 */
int
runSearch(const std::string &trace_path, const TargetSpec &spec,
          std::size_t search_polys, std::size_t search_random,
          std::uint64_t seed, unsigned threads, bool csv, bool stream,
          const TraceReaderOptions &read_opts)
{
    SearchConfig config;
    config.geometry = CacheGeometry(
        spec.org.sizeBytes, spec.org.blockBytes, spec.org.ways);
    config.inputBits = std::max(spec.org.hashBlockBits,
                                config.geometry.setBits());
    config.polyStarts = search_polys;
    config.randomSeeds = search_random;
    config.seed = seed;
    config.threads = threads > 0 ? threads : 1;

    IndexSearch engine(config);
    std::vector<SearchResult> results;
    if (stream) {
        // Chunked replay from disk per cell: only the header up front.
        TraceReader probe(trace_path);
        if (!probe.ok())
            fatal("%s", probe.error().c_str());
        if (!csv) {
            std::printf("trace: %s (%llu instructions, streamed), "
                        "%zu candidates, %u thread(s)\n",
                        trace_path.c_str(),
                        static_cast<unsigned long long>(
                            probe.recordCount()),
                        engine.candidates().size(), config.threads);
        }
        results = engine.runTraceFile(trace_path, read_opts);
    } else {
        Trace trace = loadTrace(trace_path, read_opts);
        if (!csv) {
            std::printf("trace: %s (%zu instructions), %zu candidates, "
                        "%u thread(s)\n",
                        trace_path.c_str(), trace.size(),
                        engine.candidates().size(), config.threads);
        }
        results = engine.run(std::make_shared<const Trace>(std::move(trace)));
    }

    // Every cell of a streamed search reads the same file, so the
    // front row's totals stand for the whole grid: warn once, not once
    // per candidate. (A loaded search warned in loadTrace().)
    warnDegraded("'" + trace_path + "'", results.front().read);

    // A failed measurement (damaged trace, blown deadline) is an
    // error, not a zero-miss result.
    int rc = 0;
    for (const SearchResult &r : results) {
        if (r.failed) {
            std::fprintf(stderr, "error: %s\n", r.error.message().c_str());
            rc = 1;
        }
    }

    if (csv) {
        std::printf("%s", searchCsv(results).c_str());
        return rc;
    }

    TextTable table;
    table.header({"rank", "candidate", "index", "fan-in", "predicted",
                  "miss%", "conflict", "conflict%", "sets"});
    for (const SearchResult &r : results) {
        table.beginRow();
        table.cell(static_cast<long long>(r.rank));
        table.cell(r.label);
        table.cell(r.indexName);
        table.cell(static_cast<long long>(r.maxFanIn));
        table.cell(static_cast<long long>(r.predictedScore));
        table.cell(optionalCell(!r.failed, 100.0 * r.stats.missRatio(),
                                2));
        table.cell(optionalCell(
            !r.failed, static_cast<double>(r.conflictMisses), 0));
        table.cell(optionalCell(!r.failed, r.conflictMissPct, 2));
        table.cell(optionalCell(
            !r.failed, static_cast<double>(r.way0OccupiedSets), 0));
    }
    std::printf("%s", table.render().c_str());
    // Failed rows rank last, so a failed front row means nothing was
    // measured (the shared reference cell failed).
    const SearchResult &best = results.front();
    if (best.failed)
        return rc;
    std::printf("best: %s (%s), %llu conflict misses, fan-in %u%s\n",
                best.label.c_str(), best.indexName.c_str(),
                static_cast<unsigned long long>(best.conflictMisses),
                best.maxFanIn,
                best.strideFree ? ", stride-free certificate" : "");
    return rc;
}

/**
 * --cores N: rewrite plain organization labels into the mc: grammar
 * (N cores with that L1 org over a shared a4 L2). Extended
 * targets (2lvl:/cpu:/mc:) pass through untouched.
 */
std::vector<std::string>
applyCores(std::vector<std::string> labels, unsigned cores)
{
    if (cores == 0)
        return labels;
    for (std::string &label : labels) {
        if (OrgRegistry::global().known(label))
            label = "mc:" + std::to_string(cores) + "x" + label + "/a4";
    }
    return labels;
}

/**
 * --scenario: grid a multiprogrammed mix against one target or the
 * scenario comparison set, with per-program and aggregate attribution.
 * Every target, profiled "mc:" wrappers included, is built with the
 * mix's own ASID stride as its core window, so each program runs on
 * one core whatever "asid=" the label sets.
 */
int
runScenarioCmd(const std::string &mix_label, const std::string &org,
               bool compare, TargetSpec spec, unsigned threads,
               bool csv, bool stream, unsigned cores)
{
    std::string parse_error;
    const std::optional<ScenarioSpec> parsed =
        parseScenarioLabel(mix_label, &parse_error);
    if (!parsed) {
        // The one soft-error path: a mistyped workload must not
        // silently grid nothing.
        std::fprintf(stderr, "%s\n", parse_error.c_str());
        return 1;
    }
    auto scenario = std::make_shared<const Scenario>(*parsed);
    spec.mcWindowBytes = parsed->config.asidStrideBytes;

    SweepRunner sweep(threads > 0 ? threads : 1);
    sweep.setTargetSpec(spec);
    sweep.setObsWindow(g_obs.window);
    const std::vector<std::string> labels = applyCores(
        (compare || org.empty()) ? scenarioComparisonLabels()
                                 : std::vector<std::string>{org},
        cores);
    // The conflict column only exists in the table output, so the CSV
    // path skips the profiler (and its fully-associative shadow replay
    // of the whole mix) entirely.
    for (const std::string &label : labels) {
        if (!csv && OrgRegistry::global().known(label)) {
            // Single-level organization: wrap it in a profiler so the
            // cell reports the mixed stream's conflict misses against
            // a fully-associative shadow.
            sweep.addTarget(label, [label, spec] {
                auto model = makeOrganization(label, spec.org);
                const CacheGeometry geometry = model->geometry();
                ProfilerOptions options;
                options.pairs = false;
                return std::make_unique<ConflictProfiler>(
                    std::make_unique<CacheTarget>(std::move(model)),
                    geometry, options);
            });
        } else if (!csv && label.rfind("mc:", 0) == 0) {
            // Multicore system: profile against a fully-associative
            // shadow of the *aggregate* private-L1 capacity, so the
            // conflict column answers "how many misses would N cores'
            // worth of ideally-placed L1 have avoided".
            sweep.addTarget(label, [label,
                                    spec]() -> std::unique_ptr<SimTarget> {
                auto inner = OrgRegistry::global().buildTarget(label,
                                                               spec);
                auto *mc = dynamic_cast<MultiCoreTarget *>(inner.get());
                const unsigned n = mc ? mc->system().numCores() : 0;
                // CacheGeometry wants power-of-two capacities; other
                // core counts run unprofiled.
                if (n == 0 || (n & (n - 1)) != 0)
                    return inner;
                const CacheGeometry geometry(spec.org.sizeBytes * n,
                                             spec.org.blockBytes,
                                             spec.org.ways);
                ProfilerOptions options;
                options.pairs = false;
                return std::make_unique<ConflictProfiler>(
                    std::move(inner), geometry, options);
            });
        } else {
            sweep.addTarget(label); // "2lvl:" / "cpu:" / csv mc:
        }
    }
    sweep.addScenarioWorkload(
        scenario->name(), scenario,
        stream ? kDefaultTraceChunkRecords : 0);

    // Harvest each cell's aggregate conflict misses before the
    // profiler is destroyed (cells finish on worker threads).
    std::mutex conflicts_mutex;
    std::map<std::string, std::uint64_t> conflicts;
    sweep.setCellObserver(
        [&](const SweepCell &cell, SimTarget &target) {
            if (auto *profiler =
                    dynamic_cast<ConflictProfiler *>(&target)) {
                std::lock_guard<std::mutex> lock(conflicts_mutex);
                conflicts[cell.org] =
                    profiler->profile().conflictMisses();
            }
        });

    const std::vector<SweepCell> cells = sweep.run();
    harvestObsWindows(cells);

    if (csv) {
        std::printf("%s", scenarioCsv(cells).c_str());
        return 0;
    }

    std::printf("scenario: %s\n", scenario->name().c_str());
    std::printf("programs: %zu, composed records: %zu, quantum: %llu, "
                "policy: %s, switches: %llu\n",
                scenario->programNames().size(),
                scenario->composed().size(),
                static_cast<unsigned long long>(
                    scenario->config().quantumRecords),
                switchPolicyName(scenario->config().policy).c_str(),
                static_cast<unsigned long long>(
                    scenario->numSwitches()));
    TextTable table;
    table.header({"target", "cache", "program", "asid", "records",
                  "loads", "load miss%", "miss%", "conflict"});
    for (const SweepCell &cell : cells) {
        for (const ScenarioProgramStats &program : cell.programs) {
            table.beginRow();
            table.cell(cell.org);
            table.cell(cell.cacheName);
            table.cell(program.name);
            table.cell(static_cast<long long>(program.asid));
            table.cell(static_cast<long long>(program.records));
            table.cell(static_cast<long long>(program.l1.loads));
            table.cell(100.0 * program.l1.loadMissRatio(), 2);
            table.cell(100.0 * program.l1.missRatio(), 2);
            table.cell("-");
        }
        // Per-core attribution rows for multicore cells; the conflict
        // column carries each core's inter-core conflict misses.
        for (std::size_t c = 0; c < cell.cores.size(); ++c) {
            const McCoreStats &core = cell.cores[c];
            table.beginRow();
            table.cell(cell.org);
            table.cell(cell.cacheName);
            table.cell("core" + std::to_string(c));
            table.cell("-");
            table.cell(static_cast<long long>(core.l1.accesses()));
            table.cell(static_cast<long long>(core.l1.loads));
            table.cell(100.0 * core.l1.loadMissRatio(), 2);
            table.cell(100.0 * core.l1.missRatio(), 2);
            table.cell(std::to_string(core.interCoreConflictMisses));
        }
        table.beginRow();
        table.cell(cell.org);
        table.cell(cell.cacheName);
        table.cell("<all>");
        table.cell("-");
        table.cell(static_cast<long long>(
            scenario->composed().size()));
        table.cell(static_cast<long long>(cell.stats.loads));
        table.cell(100.0 * cell.stats.loadMissRatio(), 2);
        table.cell(100.0 * cell.stats.missRatio(), 2);
        const auto it = conflicts.find(cell.org);
        table.cell(it != conflicts.end()
                       ? std::to_string(it->second)
                       : std::string("-"));
    }
    std::printf("%s", table.render().c_str());
    return 0;
}

/**
 * --shards: time-sharded replay of one trace across every requested
 * target. Returns cells shaped exactly like SweepRunner::run()'s so
 * the reporting paths are shared. CPU targets fall back to monolithic
 * replay with a stderr note (their cycle state cannot be sliced).
 */
std::vector<SweepCell>
runSharded(const std::string &trace_path,
           const std::vector<std::string> &labels,
           const TargetSpec &spec, const ShardOptions &opts,
           bool stream, bool csv)
{
    std::shared_ptr<const Trace> trace;
    ReadStats load_stats;
    std::uint64_t records = 0;
    if (stream) {
        TraceReader probe(trace_path);
        if (!probe.ok())
            fatal("%s", probe.error().c_str());
        records = probe.recordCount();
    } else {
        trace = std::make_shared<const Trace>(
            loadTrace(trace_path, opts.read, &load_stats));
        records = trace->size();
    }
    if (!csv) {
        std::printf("trace: %s (%llu instructions%s), %u shard(s), "
                    "warmup %llu\n",
                    trace_path.c_str(),
                    static_cast<unsigned long long>(records),
                    stream ? ", streamed" : "",
                    std::max(1u, opts.shards),
                    static_cast<unsigned long long>(opts.warmupRecords));
    }

    std::vector<SweepCell> cells;
    for (const std::string &label : labels) {
        const TargetFactory factory = [label, spec] {
            return OrgRegistry::global().buildTarget(label, spec);
        };
        SweepCell cell;
        cell.workload = trace_path;
        cell.org = label;

        std::unique_ptr<SimTarget> probe = factory();
        if (probe->kind() == TargetKind::Cpu) {
            std::fprintf(stderr,
                         "note: '%s' is a CPU target; replaying "
                         "monolithically (--shards does not apply)\n",
                         label.c_str());
            cell.cacheName = probe->name();
            if (stream) {
                TraceReader reader(trace_path, opts.read);
                Error error;
                if (!reader.ok())
                    error = reader.errorInfo();
                else if (tryReplayAll(reader, *probe, &error))
                    probe->finish();
                cell.read = reader.readStats();
                if (!error.ok()) {
                    cell.failed = true;
                    cell.error = error;
                }
            } else {
                probe->replay(trace->data(), trace->size());
                probe->finish();
            }
            if (!cell.failed)
                cell.target = probe->stats();
        } else {
            probe.reset();
            const ShardedReplayResult result =
                stream ? shardedReplayFile(factory, trace_path, opts)
                       : shardedReplayTrace(factory, *trace, opts);
            cell.cacheName = result.name;
            cell.target = result.stats;
            cell.read = result.read;
            if (!result.error.ok()) {
                cell.failed = true;
                cell.error = result.error;
            }
        }
        if (!stream)
            cell.read = load_stats; // the load's drops, as in a sweep
        cell.stats = cell.target.l1;
        cells.push_back(std::move(cell));
    }
    return cells;
}

/** The real driver; main() wraps it to flush telemetry artifacts. */
int
runMain(int argc, char **argv)
{
    std::string trace_path, org, cpu, analyze, scenario;
    bool compare = false;
    bool version = false;
    bool csv = false;
    bool stream = false;
    bool search = false;
    std::size_t search_polys = 16;
    std::size_t search_random = 8;
    std::uint64_t seed = 1;
    unsigned threads = std::thread::hardware_concurrency();
    unsigned shards = 0; // 0 = sharding not requested
    unsigned cores = 0;  // 0 = no multicore rewrite
    std::uint64_t warmup = ShardOptions{}.warmupRecords;
    TargetSpec spec;
    TraceReaderOptions read_opts;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--trace"))
            trace_path = argValue(argc, argv, i);
        else if (!std::strcmp(arg, "--org"))
            org = argValue(argc, argv, i);
        else if (!std::strcmp(arg, "--cpu"))
            cpu = argValue(argc, argv, i);
        else if (!std::strcmp(arg, "--analyze"))
            analyze = argValue(argc, argv, i);
        else if (!std::strcmp(arg, "--scenario"))
            scenario = argValue(argc, argv, i);
        else if (!std::strcmp(arg, "--compare"))
            compare = true;
        else if (!std::strcmp(arg, "--csv"))
            csv = true;
        else if (!std::strcmp(arg, "--stream"))
            stream = true;
        else if (!std::strcmp(arg, "--search"))
            search = true;
        else if (!std::strcmp(arg, "--search-polys"))
            search_polys =
                countFlag<std::size_t>(arg, argValue(argc, argv, i));
        else if (!std::strcmp(arg, "--search-random"))
            search_random =
                countFlag<std::size_t>(arg, argValue(argc, argv, i));
        else if (!std::strcmp(arg, "--seed"))
            seed = countFlag(arg, argValue(argc, argv, i));
        else if (!std::strcmp(arg, "--threads"))
            threads = countFlag<unsigned>(arg, argValue(argc, argv, i));
        else if (!std::strcmp(arg, "--shards"))
            shards = countFlag<unsigned>(arg, argValue(argc, argv, i));
        else if (!std::strcmp(arg, "--cores"))
            cores = countFlag<unsigned>(arg, argValue(argc, argv, i));
        else if (!std::strcmp(arg, "--warmup"))
            warmup = countFlag(arg, argValue(argc, argv, i));
        else if (!std::strcmp(arg, "--size"))
            spec.org.sizeBytes = countFlag(arg, argValue(argc, argv, i));
        else if (!std::strcmp(arg, "--ways"))
            spec.org.ways =
                countFlag<unsigned>(arg, argValue(argc, argv, i));
        else if (!std::strcmp(arg, "--block"))
            spec.org.blockBytes = countFlag(arg, argValue(argc, argv, i));
        else if (!std::strcmp(arg, "--l2-size"))
            spec.l2SizeBytes = countFlag(arg, argValue(argc, argv, i));
        else if (!std::strcmp(arg, "--l2-ways"))
            spec.l2Ways =
                countFlag<unsigned>(arg, argValue(argc, argv, i));
        else if (!std::strcmp(arg, "--policy")) {
            const char *value = argValue(argc, argv, i);
            if (!std::strcmp(value, "strict"))
                read_opts.policy = ReadPolicy::Strict;
            else if (!std::strcmp(value, "skip"))
                read_opts.policy = ReadPolicy::Skip;
            else if (!std::strcmp(value, "resync"))
                read_opts.policy = ReadPolicy::Resync;
            else {
                std::fprintf(stderr,
                             "unknown read policy '%s' (want strict, "
                             "skip or resync)\n",
                             value);
                usage();
            }
        } else if (!std::strcmp(arg, "--inject")) {
            std::string parse_error;
            const auto inject_spec = FaultInjector::parseSpec(
                argValue(argc, argv, i), &parse_error);
            if (!inject_spec) {
                std::fprintf(stderr, "%s\n", parse_error.c_str());
                usage();
            }
            read_opts.inject = *inject_spec;
        } else if (!std::strcmp(arg, "--no-verify"))
            read_opts.verifyChecksums = false;
        else if (!std::strcmp(arg, "--metrics-out"))
            g_obs.metricsPath = argValue(argc, argv, i);
        else if (!std::strcmp(arg, "--trace-out"))
            g_obs.tracePath = argValue(argc, argv, i);
        else if (!std::strcmp(arg, "--obs-window"))
            g_obs.window = countFlag(arg, argValue(argc, argv, i));
        else if (!std::strcmp(arg, "--version"))
            version = true;
        else {
            std::fprintf(stderr, "unknown argument '%s'\n", arg);
            usage();
        }
    }

    if (version) {
        std::printf(
            "%s",
            obs::manifestText(obs::buildRunManifest("cac_sim")).c_str());
        return 0;
    }

    // Runtime telemetry switches: the registry (and window sampling)
    // turn on when a metrics file is requested, the span tracer when a
    // trace file is. Everything stays on the disabled fast path
    // otherwise.
    if (!g_obs.metricsPath.empty()) {
        obs::Registry::global().setEnabled(true);
        if (g_obs.window == 0)
            g_obs.window = 65536;
    }
    if (!g_obs.tracePath.empty())
        obs::Tracer::global().enable();
    if (!g_obs.metricsPath.empty() || !g_obs.tracePath.empty()) {
        g_obs.manifest = obs::buildRunManifest("cac_sim");
        g_obs.manifest.workload =
            !scenario.empty() ? scenario : trace_path;
        g_obs.manifest.targetSpec =
            compare ? "compare"
            : !org.empty()
                ? org
                : (!cpu.empty() ? "cpu:" + cpu : analyze);
        g_obs.manifest.seed = seed;
        g_obs.manifest.threads = threads;
        g_obs.manifest.cores = cores;
        g_obs.manifest.shards = shards;
        g_obs.manifest.obsWindow = g_obs.window;
    }

    if (!scenario.empty()) {
        if (!trace_path.empty() || !analyze.empty() || search
            || !cpu.empty()) {
            std::fprintf(stderr,
                         "--scenario does not combine with --trace, "
                         "--analyze, --search or --cpu\n");
            usage();
        }
        return runScenarioCmd(scenario, org, compare, spec, threads,
                              csv, stream, cores);
    }
    if (!analyze.empty())
        return runAnalyze(analyze, trace_path, spec, stream, read_opts);
    if (search) {
        if (trace_path.empty()) {
            std::fprintf(stderr, "--search requires --trace\n");
            usage();
        }
        return runSearch(trace_path, spec, search_polys, search_random,
                         seed, threads, csv, stream, read_opts);
    }

    if (trace_path.empty() || (org.empty() && cpu.empty() && !compare))
        usage();

    if (!cpu.empty()) {
        const CpuConfig cfg = CpuConfig::tableConfig(cpu);
        CpuTarget target("cpu " + cfg.toString(), cfg);
        std::uint64_t instructions = 0;
        if (stream) {
            // Chunked replay through the target's streaming interface.
            TraceReader reader(trace_path, read_opts);
            if (!reader.ok())
                fatal("%s", reader.error().c_str());
            instructions = reader.recordCount();
            replayAll(reader, target);
            warnDegraded("'" + trace_path + "'", reader.readStats());
        } else {
            Trace trace = loadTrace(trace_path, read_opts);
            instructions = trace.size();
            target.replay(trace.data(), trace.size());
        }
        target.finish();
        const CpuStats stats = target.stats().cpu;
        std::printf("trace: %s (%llu instructions%s)\n",
                    trace_path.c_str(),
                    static_cast<unsigned long long>(instructions),
                    stream ? ", streamed" : "");
        std::printf("config          %s\n", cfg.toString().c_str());
        std::printf("cycles          %llu\n",
                    static_cast<unsigned long long>(stats.cycles));
        std::printf("IPC             %.3f\n", stats.ipc());
        std::printf("load miss ratio %.2f%%\n",
                    stats.loadMissRatioPct());
        std::printf("branch mispred  %llu / %llu (%.1f%% accuracy)\n",
                    static_cast<unsigned long long>(
                        stats.branchMispredicts),
                    static_cast<unsigned long long>(stats.branches),
                    100.0 * target.core().branchPredictor().accuracy());
        return 0;
    }

    const std::vector<std::string> labels = applyCores(
        compare ? standardTargetLabels() : std::vector<std::string>{org},
        cores);

    if (shards > 0) {
        // Time-sharded replay of the single trace (the sweep path
        // parallelizes across targets; this parallelizes within one).
        for (const std::string &label : labels) {
            if (!OrgRegistry::global().knownTarget(label))
                fatal("unknown simulation target '%s'", label.c_str());
        }
        ShardOptions opts;
        opts.shards = shards;
        opts.threads = threads;
        opts.warmupRecords = warmup;
        opts.read = read_opts;
        const std::vector<SweepCell> cells =
            runSharded(trace_path, labels, spec, opts, stream, csv);
        const int rc = reportResilience(cells);
        if (csv) {
            std::printf("%s", sweepCsv(cells).c_str());
            return rc;
        }
        TextTable table;
        table.header({"target", "cache", "loads", "load miss%",
                      "overall miss%", "L2 miss%", "holes"});
        for (const SweepCell &cell : cells) {
            const TargetStats &t = cell.target;
            table.beginRow();
            table.cell(cell.org);
            table.cell(cell.cacheName);
            table.cell(static_cast<long long>(cell.stats.loads));
            table.cell(100.0 * cell.stats.loadMissRatio(), 2);
            table.cell(100.0 * cell.stats.missRatio(), 2);
            table.cell(optionalCell(t.hasHierarchy,
                                    100.0 * t.l2.missRatio(), 2));
            table.cell(t.hasHierarchy
                           ? std::to_string(t.holes.holesCreated)
                           : std::string("-"));
        }
        std::printf("%s", table.render().c_str());
        return rc;
    }

    SweepRunner sweep(threads);
    sweep.setTargetSpec(spec);
    sweep.setReadOptions(read_opts);
    sweep.setObsWindow(g_obs.window);
    for (const std::string &label : labels)
        sweep.addTarget(label);

    ReadStats load_stats;
    if (stream) {
        // Chunked replay from disk: only the header is read up front.
        TraceReader probe(trace_path);
        if (!probe.ok())
            fatal("%s", probe.error().c_str());
        if (!csv) {
            std::printf("trace: %s (%llu instructions, streamed)\n",
                        trace_path.c_str(),
                        static_cast<unsigned long long>(
                            probe.recordCount()));
        }
        sweep.addTraceFileWorkload(trace_path, trace_path);
    } else {
        Trace trace = loadTrace(trace_path, read_opts, &load_stats);
        if (!csv) {
            std::printf("trace: %s (%zu instructions)\n",
                        trace_path.c_str(), trace.size());
        }
        sweep.addTraceWorkload(
            trace_path, std::make_shared<const Trace>(std::move(trace)));
    }

    std::vector<SweepCell> cells = sweep.run();
    // Loaded cells replay an already-decoded trace: give each the
    // load's drop totals, exactly as a streamed cell carries its
    // reader's, so degraded results never pass as exact.
    if (!stream) {
        for (SweepCell &cell : cells)
            cell.read = load_stats;
    }
    harvestObsWindows(cells);
    const int rc = reportResilience(cells);

    if (csv) {
        std::printf("%s", sweepCsv(cells).c_str());
        return rc;
    }

    TextTable table;
    table.header({"target", "cache", "loads", "load miss%",
                  "overall miss%", "L2 miss%", "holes", "IPC"});
    for (const SweepCell &cell : cells) {
        const TargetStats &t = cell.target;
        table.beginRow();
        table.cell(cell.org);
        table.cell(cell.cacheName);
        table.cell(static_cast<long long>(cell.stats.loads));
        table.cell(100.0 * cell.stats.loadMissRatio(), 2);
        table.cell(100.0 * cell.stats.missRatio(), 2);
        table.cell(optionalCell(t.hasHierarchy,
                                100.0 * t.l2.missRatio(), 2));
        table.cell(t.hasHierarchy
                       ? std::to_string(t.holes.holesCreated)
                       : std::string("-"));
        table.cell(optionalCell(t.hasCpu, t.cpu.ipc(), 3));
    }
    std::printf("%s", table.render().c_str());
    return rc;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const int rc = runMain(argc, argv);
    emitObsArtifacts();
    return rc;
}
