/**
 * @file
 * perf_engine — simulator *throughput* benchmark (accesses per second),
 * the perf trajectory behind the ROADMAP's "as fast as the hardware
 * allows" goal. Where the other benches reproduce the paper's numbers,
 * this one measures how fast we can produce them.
 *
 * Five measurements, written to BENCH_perf.json:
 *  1. per-organization scalar throughput — one virtual access() per
 *     address;
 *  2. per-organization batch throughput — one accessBatch() per stream,
 *     the compiled-index-plan hot path every sweep cell runs on;
 *  3. sweep throughput — a full (organization x workload) SweepRunner
 *     grid at 1 and at hardware_concurrency threads, including the
 *     shared materialization of generator workloads;
 *  4. streaming replay — the same trace driven through the headline
 *     organization fully loaded (runTraceMemory) vs streamed from disk
 *     in TraceReader chunks, quantifying the constant-memory path's
 *     overhead;
 *  5. analysis layer (schema 3) — GF(2) conflict analyses per second
 *     (analyzeIndex on the headline skewed I-Poly function) and
 *     index-search throughput in candidates evaluated per second, at
 *     1 thread and at --threads;
 *  6. scenario engine (schema 4) — multiprogrammed replay throughput
 *     in records per second: the swim+tomcatv mix driven through the
 *     headline organization under warm-keep and under cold-flush
 *     context switches (scenario/scenario.hh);
 *  7. sharded replay (schema 5) — time-sharded single-trace replay
 *     (core/shard_replay.hh) through the headline organization at 1,
 *     2 and 4 shards, in records per second. Near-linear scaling
 *     needs as many cores as shards; on fewer cores the ratios
 *     measure the sharding overhead instead;
 *  8. integrity (schema 6) — the cost of trace integrity checking:
 *     the same trace streamed from a legacy CACTRC01 file, from a
 *     CACTRC02 file with checksum verification disabled, and from a
 *     CACTRC02 file fully CRC-verified. The acceptance gate
 *     (tools/check_perf.py) requires verified_aps >= 0.9 x
 *     unverified_aps — integrity must cost under 10% of streamed
 *     throughput;
 *  9. multicore (schema 7) — the swim+tomcatv mix replayed through
 *     "mc:<c>xa2-Hp-Sk/a4" coherent multi-core targets at 1, 2 and
 *     4 cores, in records per second. The scheduler is a
 *     deterministic single-threaded interleave, so this measures the
 *     per-access coherence-layer overhead (reverse maps, owner
 *     tracking, inclusion filtering), not parallel speedup;
 * 10. observability (schema 8) — the warm-keep scenario replay with
 *     telemetry compiled in but runtime-off (the disabled fast path
 *     every run pays), with the metrics registry plus a 4096-access
 *     window sampler enabled, and with span tracing enabled on top.
 *     tools/check_perf.py gates off_rps >= 0.97x and metrics_rps >=
 *     0.90x of the plain scenario warm_keep_rps;
 * 11. service (schema 9) — an in-process cac_serve instance driven
 *     over real loopback sockets: PING round-trips per second, the
 *     cold RECOMMEND latency, and the memoized-repeat path (hits per
 *     second, p50/p99 latency). tools/check_perf.py gates the
 *     machine-independent ratio — a memo hit must be at least 10x
 *     faster than the cold computation — plus an absolute p99 budget.
 *
 * The headline number is the skewed I-Poly ("a2-Hp-Sk") batch
 * throughput on the stride mix: that cell is the paper's best scheme
 * and the one every miss-ratio sweep spends most of its time in.
 *
 * Usage: cac_bench_perf_engine [--smoke] [--out FILE] [--threads N]
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hh"
#include "serve/server.hh"

#include "common/bits.hh"
#include "common/cli.hh"
#include "common/rng.hh"
#include "core/cac.hh"

namespace
{

using namespace cac;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * The benchmark stream: several full stride sweeps (including the
 * power-of-two strides that conflict under conventional indexing) plus
 * a random tail, so every organization sees a realistic hit/miss mix.
 */
std::vector<std::uint64_t>
makeStream(std::size_t target_len)
{
    std::vector<std::uint64_t> out;
    out.reserve(target_len + 4096);
    const std::uint64_t strides[] = {1, 17, 128, 256, 1024};
    while (out.size() < target_len * 3 / 4) {
        for (std::uint64_t s : strides) {
            StrideWorkloadConfig wc;
            wc.stride = s;
            wc.sweeps = 8;
            const auto part = makeStrideAddressTrace(wc);
            out.insert(out.end(), part.begin(), part.end());
            if (out.size() >= target_len * 3 / 4)
                break;
        }
    }
    Rng rng(42);
    while (out.size() < target_len)
        out.push_back((rng.next() & mask(19)) << 3);
    out.resize(target_len);
    return out;
}

struct OrgResult
{
    std::string org;
    std::string cacheName;
    double scalarAps = 0.0;
    double batchAps = 0.0;
};

struct SweepResult
{
    unsigned threads = 0;
    double seconds = 0.0;
    double accessesPerSec = 0.0;
};

struct StreamingResult
{
    std::size_t records = 0;
    double inMemoryAps = 0.0;
    double streamedAps = 0.0;
};

/** Integrity-checking overhead on the streamed path (schema 6). */
struct IntegrityPerf
{
    std::size_t records = 0;
    double v1StreamedAps = 0.0;   ///< CACTRC01 (no checksums to check)
    double unverifiedAps = 0.0;   ///< CACTRC02, verifyChecksums=false
    double verifiedAps = 0.0;     ///< CACTRC02, full CRC verification
};

/** One --threads point of the index-search throughput measurement. */
struct SearchRun
{
    unsigned threads = 0;
    double seconds = 0.0;
    double candidatesPerSec = 0.0;
};

struct AnalysisResult
{
    double analyzesPerSec = 0.0; ///< analyzeIndex() calls per second
    std::size_t candidates = 0;  ///< search grid size
    std::size_t workloadAccesses = 0;
    std::vector<SearchRun> searchRuns;
};

/** One shard-count point of the sharded-replay measurement. */
struct ShardRun
{
    unsigned shards = 0;
    double seconds = 0.0;
    double recordsPerSec = 0.0;
};

/** Time-sharded single-trace replay throughput (schema 5). */
struct ShardedPerf
{
    std::size_t records = 0;
    std::uint64_t warmupRecords = 0;
    std::vector<ShardRun> runs;
};

/** One core-count point of the multicore replay measurement. */
struct McRun
{
    unsigned cores = 0;
    double seconds = 0.0;
    double recordsPerSec = 0.0;
};

/** Coherent multi-core replay throughput (schema 7). */
struct MultiCorePerf
{
    std::string label;       ///< the measured mix label
    std::size_t records = 0; ///< composed trace length
    std::vector<McRun> runs;
};

/** Telemetry overhead on the scenario replay loop (schema 8). */
struct ObsPerf
{
    std::size_t records = 0;
    double offRps = 0.0;     ///< compiled in, runtime off
    double metricsRps = 0.0; ///< registry + 4096-access windows on
    double traceRps = 0.0;   ///< span tracing on top of metrics
};

/** Advisor-service request throughput and latency (schema 9). */
struct ServicePerf
{
    double pingRps = 0.0;    ///< PING round-trips per second
    double coldMs = 0.0;     ///< one uncached RECOMMEND, milliseconds
    double memoHitRps = 0.0; ///< memoized repeats per second
    double memoP50Us = 0.0;  ///< memo-hit latency, median
    double memoP99Us = 0.0;  ///< memo-hit latency, 99th percentile
};

/** Multiprogrammed-replay throughput (schema 4). */
struct ScenarioPerf
{
    std::string label;       ///< the measured mix label
    std::size_t records = 0; ///< composed trace length
    std::size_t programs = 0;
    std::uint64_t switches = 0;
    double warmKeepRps = 0.0;  ///< records/sec, warm-keep switches
    double coldFlushRps = 0.0; ///< records/sec, cold-flush switches
};

void
writeJson(const std::string &path, bool smoke, std::size_t stream_len,
          const std::vector<OrgResult> &orgs, std::size_t sweep_cells,
          std::size_t sweep_accesses, const std::vector<SweepResult> &sweeps,
          const StreamingResult &streaming, const AnalysisResult &analysis,
          const ScenarioPerf &scenario, const ShardedPerf &sharded,
          const IntegrityPerf &integrity, const MultiCorePerf &multicore,
          const ObsPerf &obs_perf, const ServicePerf &service)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(1);
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"bench\": \"perf_engine\",\n");
    std::fprintf(f, "  \"schema\": 9,\n");
    std::fprintf(f, "  \"unit\": \"accesses_per_second\",\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::fprintf(f, "  \"stream_length\": %zu,\n", stream_len);
    std::fprintf(f, "  \"organizations\": [\n");
    for (std::size_t i = 0; i < orgs.size(); ++i) {
        const OrgResult &r = orgs[i];
        std::fprintf(f,
                     "    {\"org\": \"%s\", \"cache\": \"%s\", "
                     "\"scalar_aps\": %.0f, \"batch_aps\": %.0f}%s\n",
                     r.org.c_str(), r.cacheName.c_str(), r.scalarAps,
                     r.batchAps, i + 1 < orgs.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"sweep\": {\n");
    std::fprintf(f, "    \"cells\": %zu,\n", sweep_cells);
    std::fprintf(f, "    \"total_accesses\": %zu,\n", sweep_accesses);
    std::fprintf(f, "    \"runs\": [\n");
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
        const SweepResult &s = sweeps[i];
        std::fprintf(f,
                     "      {\"threads\": %u, \"seconds\": %.4f, "
                     "\"accesses_per_sec\": %.0f}%s\n",
                     s.threads, s.seconds, s.accessesPerSec,
                     i + 1 < sweeps.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"streaming\": {\n");
    std::fprintf(f, "    \"records\": %zu,\n", streaming.records);
    std::fprintf(f, "    \"in_memory_aps\": %.0f,\n",
                 streaming.inMemoryAps);
    std::fprintf(f, "    \"streamed_aps\": %.0f\n",
                 streaming.streamedAps);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"analysis\": {\n");
    std::fprintf(f, "    \"analyzes_per_sec\": %.0f,\n",
                 analysis.analyzesPerSec);
    std::fprintf(f, "    \"search\": {\n");
    std::fprintf(f, "      \"candidates\": %zu,\n", analysis.candidates);
    std::fprintf(f, "      \"workload_accesses\": %zu,\n",
                 analysis.workloadAccesses);
    std::fprintf(f, "      \"runs\": [\n");
    for (std::size_t i = 0; i < analysis.searchRuns.size(); ++i) {
        const SearchRun &r = analysis.searchRuns[i];
        std::fprintf(f,
                     "        {\"threads\": %u, \"seconds\": %.4f, "
                     "\"candidates_per_sec\": %.2f}%s\n",
                     r.threads, r.seconds, r.candidatesPerSec,
                     i + 1 < analysis.searchRuns.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n");
    std::fprintf(f, "    }\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"scenario\": {\n");
    std::fprintf(f, "    \"label\": \"%s\",\n", scenario.label.c_str());
    std::fprintf(f, "    \"records\": %zu,\n", scenario.records);
    std::fprintf(f, "    \"programs\": %zu,\n", scenario.programs);
    std::fprintf(f, "    \"switches\": %llu,\n",
                 static_cast<unsigned long long>(scenario.switches));
    std::fprintf(f, "    \"warm_keep_rps\": %.0f,\n",
                 scenario.warmKeepRps);
    std::fprintf(f, "    \"cold_flush_rps\": %.0f\n",
                 scenario.coldFlushRps);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"sharded\": {\n");
    std::fprintf(f, "    \"records\": %zu,\n", sharded.records);
    std::fprintf(f, "    \"warmup_records\": %llu,\n",
                 static_cast<unsigned long long>(sharded.warmupRecords));
    std::fprintf(f, "    \"runs\": [\n");
    for (std::size_t i = 0; i < sharded.runs.size(); ++i) {
        const ShardRun &r = sharded.runs[i];
        std::fprintf(f,
                     "      {\"shards\": %u, \"seconds\": %.4f, "
                     "\"records_per_sec\": %.0f}%s\n",
                     r.shards, r.seconds, r.recordsPerSec,
                     i + 1 < sharded.runs.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"integrity\": {\n");
    std::fprintf(f, "    \"records\": %zu,\n", integrity.records);
    std::fprintf(f, "    \"v1_streamed_aps\": %.0f,\n",
                 integrity.v1StreamedAps);
    std::fprintf(f, "    \"unverified_aps\": %.0f,\n",
                 integrity.unverifiedAps);
    std::fprintf(f, "    \"verified_aps\": %.0f\n",
                 integrity.verifiedAps);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"multicore\": {\n");
    std::fprintf(f, "    \"label\": \"%s\",\n", multicore.label.c_str());
    std::fprintf(f, "    \"records\": %zu,\n", multicore.records);
    std::fprintf(f, "    \"runs\": [\n");
    for (std::size_t i = 0; i < multicore.runs.size(); ++i) {
        const McRun &r = multicore.runs[i];
        std::fprintf(f,
                     "      {\"cores\": %u, \"seconds\": %.4f, "
                     "\"records_per_sec\": %.0f}%s\n",
                     r.cores, r.seconds, r.recordsPerSec,
                     i + 1 < multicore.runs.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"observability\": {\n");
    std::fprintf(f, "    \"records\": %zu,\n", obs_perf.records);
    std::fprintf(f, "    \"off_rps\": %.0f,\n", obs_perf.offRps);
    std::fprintf(f, "    \"metrics_rps\": %.0f,\n", obs_perf.metricsRps);
    std::fprintf(f, "    \"trace_rps\": %.0f\n", obs_perf.traceRps);
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"service\": {\n");
    std::fprintf(f, "    \"ping_rps\": %.0f,\n", service.pingRps);
    std::fprintf(f, "    \"cold_ms\": %.3f,\n", service.coldMs);
    std::fprintf(f, "    \"memo_hit_rps\": %.0f,\n",
                 service.memoHitRps);
    std::fprintf(f, "    \"memo_p50_us\": %.1f,\n", service.memoP50Us);
    std::fprintf(f, "    \"memo_p99_us\": %.1f\n", service.memoP99Us);
    std::fprintf(f, "  }\n");
    std::fprintf(f, "}\n");
    std::fclose(f);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out_path = "BENCH_perf.json";
    unsigned max_threads = std::thread::hardware_concurrency();
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--smoke")) {
            smoke = true;
        } else if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
            const char *flag = argv[i++];
            max_threads = countFlag<unsigned>(flag, argv[i]);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--smoke] [--out FILE] [--threads N]\n",
                         argv[0]);
            return 1;
        }
    }
    if (max_threads == 0)
        max_threads = 1;

    const std::size_t stream_len = smoke ? 50000 : 1000000;
    const double min_seconds = smoke ? 0.02 : 0.25;
    const std::vector<std::uint64_t> stream = makeStream(stream_len);

    // One organization per distinct hot path: the four model classes
    // (SetAssocCache x 4 index schemes, TwoProbeCache x 2 rehashes,
    // VictimCache, FullyAssocCache).
    const std::vector<std::string> labels = {
        "dm",     "a2",          "a2-Hx-Sk",    "a2-Hp", "a2-Hp-Sk",
        "victim", "hash-rehash", "column-poly", "full"};

    OrgSpec spec;
    std::vector<OrgResult> org_results;
    std::printf("%-14s %14s %14s %8s\n", "organization", "scalar aps",
                "batch aps", "batch/s");
    for (const std::string &label : labels) {
        OrgResult r;
        r.org = label;
        {
            auto cache = makeOrganization(label, spec);
            r.cacheName = cache->name();
            r.scalarAps = measureThroughput(min_seconds, [&] {
                for (std::uint64_t addr : stream)
                    cache->access(addr, false);
                return static_cast<std::uint64_t>(stream.size());
            }).unitsPerSec;
        }
        {
            auto cache = makeOrganization(label, spec);
            r.batchAps = measureThroughput(min_seconds, [&] {
                cache->accessBatch(stream.data(), stream.size(), false);
                return static_cast<std::uint64_t>(stream.size());
            }).unitsPerSec;
        }
        std::printf("%-14s %14.0f %14.0f %7.2fx\n", label.c_str(),
                    r.scalarAps, r.batchAps, r.batchAps / r.scalarAps);
        org_results.push_back(std::move(r));
    }

    // Sweep throughput: grid of all organizations x generator stride
    // workloads (generators exercise the runner's shared workload
    // materialization), at 1 thread and at max_threads.
    const std::uint64_t sweep_strides[] = {1, 64, 128, 256, 512, 1024};
    const std::size_t sweeps_per_stride = smoke ? 16 : 128;
    std::vector<SweepResult> sweep_results;
    std::size_t sweep_cells = 0;
    std::size_t sweep_accesses = 0;
    for (unsigned threads : {1u, max_threads}) {
        SweepRunner sweep(threads);
        sweep.addOrgs(labels);
        for (std::uint64_t s : sweep_strides) {
            sweep.addAddressWorkload(
                "stride-" + std::to_string(s), [s, sweeps_per_stride] {
                    StrideWorkloadConfig wc;
                    wc.stride = s;
                    wc.sweeps = sweeps_per_stride;
                    return makeStrideAddressTrace(wc);
                });
        }
        const auto start = Clock::now();
        const std::vector<SweepCell> cells = sweep.run();
        SweepResult sr;
        sr.threads = threads;
        sr.seconds = secondsSince(start);
        sweep_cells = cells.size();
        sweep_accesses = 0;
        for (const SweepCell &cell : cells)
            sweep_accesses += cell.stats.accesses();
        sr.accessesPerSec =
            static_cast<double>(sweep_accesses) / sr.seconds;
        std::printf("sweep %3u thread%s %14.0f aps  (%zu cells, %.3fs)\n",
                    threads, threads == 1 ? " " : "s", sr.accessesPerSec,
                    sweep_cells, sr.seconds);
        sweep_results.push_back(sr);
        if (max_threads == 1)
            break;
    }

    // Streaming replay: the headline organization replaying the same
    // memory stream as an instruction trace, fully loaded vs streamed
    // from disk in TraceReader chunks.
    StreamingResult streaming;
    {
        const std::string headline = "a2-Hp-Sk";
        Trace trace;
        TraceBuilder builder(trace);
        for (std::uint64_t addr : stream)
            builder.load(addr, reg::r(1), reg::r(30));
        streaming.records = trace.size();

        // Per-process filename: concurrent runs must not clobber each
        // other's trace mid-measurement.
        const std::string trace_path =
            (std::filesystem::temp_directory_path()
             / ("cac_perf_stream." + std::to_string(getpid())
                + ".trc"))
                .string();
        writeTrace(trace, trace_path);

        {
            auto cache = makeOrganization(headline, spec);
            streaming.inMemoryAps = measureThroughput(min_seconds, [&] {
                const std::uint64_t before = cache->stats().accesses();
                runTraceMemory(*cache, trace);
                return cache->stats().accesses() - before;
            }).unitsPerSec;
        }
        {
            CacheTarget target(makeOrganization(headline, spec));
            streaming.streamedAps = measureThroughput(min_seconds, [&] {
                const std::uint64_t before =
                    target.model().stats().accesses();
                TraceReader reader(trace_path);
                replayAll(reader, target);
                target.finish();
                return target.model().stats().accesses() - before;
            }).unitsPerSec;
        }
        std::remove(trace_path.c_str());
        std::printf("streamed replay %14.0f aps vs %14.0f in-memory "
                    "(%.2fx, %zu records)\n",
                    streaming.streamedAps, streaming.inMemoryAps,
                    streaming.streamedAps / streaming.inMemoryAps,
                    streaming.records);
    }

    // Analysis layer: GF(2) analyzer calls per second on the headline
    // index function, then index-search throughput in candidates
    // evaluated per second at 1 thread and at max_threads.
    AnalysisResult analysis;
    {
        const IPolyIndex headline_fn(7, 2, 14, /*skewed=*/true);
        analysis.analyzesPerSec = measureThroughput(min_seconds, [&] {
            const ConflictAnalysis a = analyzeIndex(headline_fn, 14);
            return static_cast<std::uint64_t>(a.ways.size() > 0);
        }).unitsPerSec;
        std::printf("conflict analyses %11.0f /sec (a2-Hp-Sk)\n",
                    analysis.analyzesPerSec);

        const std::vector<std::uint64_t> workload =
            makeStream(smoke ? 20000 : 200000);
        analysis.workloadAccesses = workload.size();
        for (unsigned threads : {1u, max_threads}) {
            SearchConfig run_config;
            run_config.threads = threads;
            IndexSearch engine(run_config);
            analysis.candidates = engine.candidates().size();
            const auto start = Clock::now();
            const auto results = engine.run(workload);
            SearchRun r;
            r.threads = threads;
            r.seconds = secondsSince(start);
            r.candidatesPerSec =
                static_cast<double>(results.size()) / r.seconds;
            std::printf(
                "search %3u thread%s %11.1f candidates/sec "
                "(%zu candidates, %.3fs)\n",
                threads, threads == 1 ? " " : "s", r.candidatesPerSec,
                results.size(), r.seconds);
            analysis.searchRuns.push_back(r);
            if (max_threads == 1)
                break;
        }
    }

    // Scenario engine: the swim+tomcatv mix replayed through the
    // headline organization, measuring the multiprogrammed replay
    // loop (segment dispatch + checkpoints + switch policy) in
    // records per second.
    ScenarioPerf scenario_perf;
    {
        const std::string base =
            smoke ? "mix:swim+tomcatv@q=5k,n=25k"
                  : "mix:swim+tomcatv@q=50k,n=250k";
        const auto measure = [&](const std::string &label) {
            const std::shared_ptr<const Scenario> scenario =
                buildScenario(label);
            scenario_perf.records = scenario->composed().size();
            scenario_perf.programs = scenario->programNames().size();
            scenario_perf.switches = scenario->numSwitches();
            return measureThroughput(min_seconds, [&] {
                CacheTarget target(
                    makeOrganization("a2-Hp-Sk", spec));
                scenario->replayInto(target);
                target.finish();
                return static_cast<std::uint64_t>(
                    scenario->composed().size());
            }).unitsPerSec;
        };
        scenario_perf.label = base;
        scenario_perf.warmKeepRps = measure(base);
        scenario_perf.coldFlushRps = measure(base + ",flush");
        std::printf("scenario replay %14.0f rps keep, %14.0f rps flush "
                    "(%zu records, %llu switches)\n",
                    scenario_perf.warmKeepRps,
                    scenario_perf.coldFlushRps, scenario_perf.records,
                    static_cast<unsigned long long>(
                        scenario_perf.switches));
    }

    // Sharded replay: the same memory stream as an in-memory trace,
    // time-sharded across 1/2/4 workers. shards=1 is the monolithic
    // baseline the speedups are measured against.
    ShardedPerf sharded_perf;
    {
        Trace trace;
        TraceBuilder builder(trace);
        for (std::uint64_t addr : stream)
            builder.load(addr, reg::r(1), reg::r(30));
        sharded_perf.records = trace.size();
        sharded_perf.warmupRecords = ShardOptions{}.warmupRecords;

        const TargetFactory factory = [&spec] {
            return std::make_unique<CacheTarget>(
                makeOrganization("a2-Hp-Sk", spec));
        };
        for (unsigned shards : {1u, 2u, 4u}) {
            ShardOptions opts;
            opts.shards = shards;
            const ThroughputResult r =
                measureThroughput(min_seconds, [&] {
                    shardedReplayTrace(factory, trace, opts);
                    return static_cast<std::uint64_t>(trace.size());
                });
            ShardRun run;
            run.shards = shards;
            run.seconds = r.seconds;
            run.recordsPerSec = r.unitsPerSec;
            const double speedup =
                sharded_perf.runs.empty()
                    ? 1.0
                    : run.recordsPerSec
                          / sharded_perf.runs[0].recordsPerSec;
            std::printf("sharded replay %u shard%s %14.0f rps (%.2fx)\n",
                        shards, shards == 1 ? " " : "s",
                        run.recordsPerSec, speedup);
            sharded_perf.runs.push_back(run);
        }
    }

    // Integrity overhead: identical trace content streamed through the
    // headline organization from a CACTRC01 file (nothing to verify),
    // a CACTRC02 file with verification off (framing only), and a
    // CACTRC02 file fully CRC-verified. verified vs unverified is the
    // <10% acceptance gate.
    IntegrityPerf integrity;
    {
        Trace trace;
        TraceBuilder builder(trace);
        for (std::uint64_t addr : stream)
            builder.load(addr, reg::r(1), reg::r(30));
        integrity.records = trace.size();

        const std::string base =
            (std::filesystem::temp_directory_path()
             / ("cac_perf_integrity." + std::to_string(getpid())))
                .string();
        const std::string v1_path = base + ".v1.trc";
        const std::string v2_path = base + ".v2.trc";
        writeTrace(trace, v1_path, TraceFormat::V1);
        writeTrace(trace, v2_path, TraceFormat::V2);

        const auto measure = [&](const std::string &path,
                                 bool verify) {
            CacheTarget target(makeOrganization("a2-Hp-Sk", spec));
            TraceReaderOptions opts;
            opts.verifyChecksums = verify;
            return measureThroughput(min_seconds, [&] {
                const std::uint64_t before =
                    target.model().stats().accesses();
                TraceReader reader(path, opts);
                replayAll(reader, target);
                target.finish();
                return target.model().stats().accesses() - before;
            }).unitsPerSec;
        };
        integrity.v1StreamedAps = measure(v1_path, true);
        integrity.unverifiedAps = measure(v2_path, false);
        integrity.verifiedAps = measure(v2_path, true);
        std::remove(v1_path.c_str());
        std::remove(v2_path.c_str());
        std::printf("integrity %14.0f aps v1, %14.0f unverified, "
                    "%14.0f verified (%.1f%% cost)\n",
                    integrity.v1StreamedAps, integrity.unverifiedAps,
                    integrity.verifiedAps,
                    100.0
                        * (1.0
                           - integrity.verifiedAps
                                 / integrity.unverifiedAps));
    }

    // Multicore replay: the same scenario mix through coherent N-core
    // targets. cores=1 bounds the coherence layer's overhead against
    // the plain-hierarchy scenario numbers above; 2 and 4 cores add
    // the per-access demultiplex and the shared-L2 bookkeeping.
    MultiCorePerf multicore_perf;
    {
        const std::string mix = smoke ? "mix:swim+tomcatv@q=5k,n=25k"
                                      : "mix:swim+tomcatv@q=50k,n=250k";
        const std::shared_ptr<const Scenario> scenario =
            buildScenario(mix);
        multicore_perf.label = mix;
        multicore_perf.records = scenario->composed().size();
        TargetSpec tspec;
        tspec.org = spec;
        for (unsigned cores : {1u, 2u, 4u}) {
            const std::string label =
                "mc:" + std::to_string(cores) + "xa2-Hp-Sk/a4";
            const ThroughputResult r =
                measureThroughput(min_seconds, [&] {
                    auto target = OrgRegistry::global().buildTarget(
                        label, tspec);
                    scenario->replayInto(*target);
                    target->finish();
                    return static_cast<std::uint64_t>(
                        scenario->composed().size());
                });
            McRun run;
            run.cores = cores;
            run.seconds = r.seconds;
            run.recordsPerSec = r.unitsPerSec;
            std::printf("multicore replay %u core%s %12.0f rps\n",
                        cores, cores == 1 ? " " : "s",
                        run.recordsPerSec);
            multicore_perf.runs.push_back(run);
        }
    }

    // Observability overhead: the warm-keep mix again, with telemetry
    // runtime-off (what every uninstrumented run pays for the compiled
    // macros), then with the metrics registry + a 4096-access window
    // sampler on, then with span tracing on top. The registry and
    // tracer are process-global; each configuration is restored to the
    // disabled fast path before the next measurement.
    ObsPerf obs_perf;
    {
        const std::string mix = smoke ? "mix:swim+tomcatv@q=5k,n=25k"
                                      : "mix:swim+tomcatv@q=50k,n=250k";
        const std::shared_ptr<const Scenario> scenario =
            buildScenario(mix);
        obs_perf.records = scenario->composed().size();
        const auto measure = [&](bool metrics, bool tracing) {
            if (metrics)
                obs::Registry::global().setEnabled(true);
            if (tracing)
                obs::Tracer::global().enable();
            const double rps =
                measureThroughput(min_seconds, [&] {
                    CacheTarget target(
                        makeOrganization("a2-Hp-Sk", spec));
                    std::optional<obs::WindowSampler> sampler;
                    std::function<void(std::size_t)> sample;
                    if (metrics) {
                        sampler.emplace(target, 4096);
                        sample = [&](std::size_t) { sampler->sample(); };
                    }
                    scenario->replayInto(target, 8192, sample);
                    target.finish();
                    if (sampler)
                        sampler->finish();
                    return static_cast<std::uint64_t>(
                        scenario->composed().size());
                }).unitsPerSec;
            obs::Registry::global().setEnabled(false);
            obs::Registry::global().reset();
            obs::Tracer::global().disable();
            return rps;
        };
        obs_perf.offRps = measure(false, false);
        obs_perf.metricsRps = measure(true, false);
        obs_perf.traceRps = measure(true, true);
        std::printf("observability %12.0f rps off, %12.0f metrics "
                    "(%.2fx), %12.0f traced (%.2fx)\n",
                    obs_perf.offRps, obs_perf.metricsRps,
                    obs_perf.metricsRps / obs_perf.offRps,
                    obs_perf.traceRps,
                    obs_perf.traceRps / obs_perf.offRps);
    }

    // Advisor service: an in-process server driven over real loopback
    // sockets, so the numbers include framing, TCP_NODELAY round
    // trips and the admission path — everything a real client pays.
    // The memoized-repeat latencies are the headline: a hit is a map
    // lookup plus one socket round trip, so p50 should sit orders of
    // magnitude under the cold search it replaces.
    ServicePerf service_perf;
    {
        serve::ServeConfig config;
        config.port = 0;
        config.workers = 2;
        serve::Server server(config);
        if (Error err = server.start()) {
            std::fprintf(stderr, "service bench: %s\n",
                         err.message().c_str());
            return 1;
        }
        serve::Client client;
        if (Error err = client.connectTo(server.port())) {
            std::fprintf(stderr, "service bench: %s\n",
                         err.message().c_str());
            return 1;
        }

        service_perf.pingRps = measureThroughput(min_seconds, [&] {
            std::uint64_t ok = 0;
            for (int i = 0; i < 64; ++i)
                ok += client.ping().type == serve::MsgType::Pong;
            return ok;
        }).unitsPerSec;

        const std::string payload =
            smoke ? "workload=mix:swim@n=25k\npolys=2\nrandom=1\n"
                  : "workload=mix:swim+tomcatv@q=50k,n=250k\n";
        const auto cold_start = Clock::now();
        const serve::Reply cold =
            client.request(serve::MsgType::Recommend, payload);
        service_perf.coldMs = secondsSince(cold_start) * 1e3;
        if (!cold.ok()) {
            std::fprintf(stderr, "service bench: cold recommend: %s\n",
                         cold.payload.c_str());
            return 1;
        }

        std::vector<double> lat_us;
        const ThroughputResult hits =
            measureThroughput(min_seconds, [&] {
                std::uint64_t ok = 0;
                for (int i = 0; i < 64; ++i) {
                    const auto start = Clock::now();
                    const serve::Reply hit = client.request(
                        serve::MsgType::Recommend, payload);
                    lat_us.push_back(secondsSince(start) * 1e6);
                    ok += hit.ok() && hit.memoHit();
                }
                return ok;
            });
        service_perf.memoHitRps = hits.unitsPerSec;
        std::sort(lat_us.begin(), lat_us.end());
        service_perf.memoP50Us = lat_us[lat_us.size() / 2];
        service_perf.memoP99Us = lat_us[lat_us.size() * 99 / 100];
        server.stop();
        std::printf("service %10.0f ping rps, cold %8.1f ms, memo "
                    "%8.0f rps (p50 %.0f us, p99 %.0f us)\n",
                    service_perf.pingRps, service_perf.coldMs,
                    service_perf.memoHitRps, service_perf.memoP50Us,
                    service_perf.memoP99Us);
    }

    writeJson(out_path, smoke, stream_len, org_results, sweep_cells,
              sweep_accesses, sweep_results, streaming, analysis,
              scenario_perf, sharded_perf, integrity, multicore_perf,
              obs_perf, service_perf);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
