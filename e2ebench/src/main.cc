/**
 * @file
 * cac_e2e: the repository's end-to-end benchmark.
 *
 *   cac_e2e --workload table_sweep|mc_mix --seed N
 *           --seconds S --trace 0|1 --data-dir DIR
 *
 * Prints a human-readable report (host provenance, per-pass figures,
 * digests of the simulated statistics, the named metrics) and, as the
 * last line of standard output, one JSON object:
 *
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 *
 * With --trace 0 the metrics are the end-to-end ones, with --trace 1
 * the per-layer ones (and the run also writes a Chrome trace-event
 * file of its spans into DIR). See README.md next to this directory's
 * build file for what each workload and metric means.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/logging.hh"
#include "obs/json_util.hh"
#include "obs/manifest.hh"
#include "report.hh"
#include "spans.hh"
#include "workloads.hh"

namespace
{

using namespace e2e;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "cac_e2e: %s\n"
                 "usage: cac_e2e --workload table_sweep|mc_mix "
                 "--seed N --seconds S --trace 0|1 --data-dir DIR\n",
                 why);
    std::exit(2);
}

RunOptions
parseArgs(int argc, char **argv)
{
    RunOptions o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(v.c_str());
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--data-dir")
            o.dataDir = v;
        else
            usage(("unknown option " + a).c_str());
    }
    if (o.workload != "table_sweep" && o.workload != "mc_mix")
        usage(("unknown workload '" + o.workload + "'").c_str());
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    if (o.dataDir.empty())
        usage("--data-dir is required");
    return o;
}

std::string
quoted(const std::string &s)
{
    return "\"" + cac::obs::jsonEscape(s) + "\"";
}

/** Artifact size cap: spans beyond it are in the table, not the file. */
constexpr std::size_t kMaxArtifactSpans = 250000;

/** Print the per-layer self-time table and write the trace artifact. */
void
finishTrace(const RunOptions &opts, const Provenance &prov)
{
    const SpanLog &log = SpanLog::global();
    std::vector<cac::obs::TraceEvent> events = log.events();
    const auto table = layerTimes(events, log.aggregates(), log.charged());
    double self_total = 0;
    for (const auto &[layer, t] : table)
        self_total += t.selfNs;
    say("layer self time (%zu spans, %llu dropped):", events.size(),
        static_cast<unsigned long long>(log.dropped()));
    say("  %-10s %10s %12s %12s %12s %7s", "layer", "spans",
        "summed_calls", "total_ms", "self_ms", "share");
    for (const auto &[layer, t] : table) {
        say("  %-10s %10llu %12llu %12.3f %12.3f %6.2f%%", layer.c_str(),
            static_cast<unsigned long long>(t.spans),
            static_cast<unsigned long long>(t.calls), t.totalNs / 1e6,
            t.selfNs / 1e6, 100.0 * t.selfNs / std::max(1.0, self_total));
    }

    cac::obs::RunManifest m = cac::obs::buildRunManifest("cac_e2e");
    m.workload = opts.workload;
    m.seed = opts.seed;
    if (events.size() > kMaxArtifactSpans)
        events.resize(kMaxArtifactSpans);
    std::string json = cac::obs::chromeTraceJson(events, log.dropped(), &m);
    // Host provenance goes next to the manifest, under otherData.host.
    const std::string host = "{\"nproc\": " + std::to_string(prov.nproc)
        + ", \"cpu\": " + quoted(prov.cpuModel)
        + ", \"load_start\": " + quoted(prov.loadStart)
        + ", \"load_end\": " + quoted(loadAverage()) + "}";
    const std::size_t other_end = json.rfind("\n  }\n}");
    if (other_end != std::string::npos)
        json.insert(other_end, ",\n    \"host\": " + host);
    const std::string path = opts.dataDir + "/trace-" + opts.workload + "-"
        + std::to_string(opts.seed) + ".json";
    std::ofstream file(path);
    file << json;
    file.close();
    if (file)
        say("trace artifact %s (%zu spans)", path.c_str(), events.size());
    else
        say("trace artifact %s could not be written", path.c_str());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const RunOptions opts = parseArgs(argc, argv);
    std::filesystem::create_directories(opts.dataDir);
    cac::setLogLevel(cac::LogLevel::Warn);
    const Provenance prov = captureProvenance();
    say("e2e workload=%s seed=%llu seconds=%g trace=%d", opts.workload.c_str(),
        static_cast<unsigned long long>(opts.seed), opts.seconds,
        opts.trace ? 1 : 0);
    say("%s", provenanceLine(prov).c_str());

    Outcome out;
    if (opts.workload == "table_sweep")
        runTableSweep(opts, out);
    else
        runMcMix(opts, out);
    if (!opts.trace)
        out.set("peak_rss_mb", peakRssMiB(), "MiB");
    else
        finishTrace(opts, prov);
    say("host load_end=\"%s\"", loadAverage().c_str());
    for (const std::string &p : out.problems())
        say("problem: %s", p.c_str());

    // The JSON line carries exactly the metric set of this mode.
    const std::vector<std::string> &names =
        opts.trace ? perLayerNames() : endToEndNames();
    std::string metrics;
    for (const std::string &name : names) {
        const auto it = out.metrics().find(name);
        if (it == out.metrics().end() || !std::isfinite(it->second.value)) {
            std::fprintf(stderr, "cac_e2e: metric %s was not measured\n",
                         name.c_str());
            return 1;
        }
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", it->second.value);
        metrics += std::string(metrics.empty() ? "" : ", ") + quoted(name)
            + ": {\"value\": " + value
            + ", \"unit\": " + quoted(it->second.unit) + "}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                out.correct() ? "true" : "false",
                static_cast<unsigned long long>(out.attempted()),
                static_cast<unsigned long long>(out.failed()),
                metrics.c_str());
    return 0;
}
