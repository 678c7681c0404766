/**
 * @file
 * Run manifest: the provenance block stamped into every telemetry
 * artifact (metrics JSON, Chrome trace, perf results) and printed by
 * `cac_sim --version`.
 *
 * A telemetry file without provenance is a trap — "12.6% miss ratio"
 * means nothing without the target spec, seed and whether the binary
 * ran the AVX2 or SWAR index kernel. buildRunManifest() fills the
 * build-time half (git describe, compiler, build type,
 * SIMD dispatch, schema versions); the driver fills the run-time half
 * (workload, target, seed, threads/cores/shards) before emitting.
 */

#ifndef CAC_OBS_MANIFEST_HH
#define CAC_OBS_MANIFEST_HH

#include <cstdint>
#include <string>

namespace cac::obs
{

/** Provenance stamped into every emitted telemetry artifact. */
struct RunManifest
{
    // Build-time (filled by buildRunManifest()).
    std::string tool = "cac";      ///< emitting binary ("cac_sim", ...)
    std::string gitDescribe;       ///< `git describe` at configure time
    std::string compiler;          ///< "g++ 13.2" / "clang++ 17.0"
    std::string buildType;         ///< CMAKE_BUILD_TYPE
    /**
     * Always true: telemetry is compiled into every build and gated at
     * run time. Kept because the artifact schema (tools/check_obs.py)
     * and the e2ebench report carry it.
     */
    bool obsCompiled = true;
    std::string simdDispatch;      ///< "avx2" | "swar" (runtime choice)
    int metricsSchema = 1;         ///< metrics-out file schema
    int traceSchema = 1;           ///< trace-out file schema
    std::string traceContainer = "CACTRC02"; ///< newest trace format

    // Run-time (filled by the driver; empty/zero when not applicable).
    std::string workload;   ///< trace path / scenario spec / "address"
    std::string targetSpec; ///< org label(s) of the run
    std::uint64_t seed = 0;
    unsigned threads = 0;
    unsigned cores = 0;
    unsigned shards = 0;
    std::uint64_t obsWindow = 0; ///< --obs-window size, 0 = off
};

/** Manifest with every build-time field resolved for this binary. */
RunManifest buildRunManifest(const std::string &tool);

/**
 * Render as a JSON object ("{...}"), each line indented by @p indent
 * spaces (the opening brace is not indented, so the object can be
 * embedded after a key).
 */
std::string manifestJson(const RunManifest &manifest, int indent = 2);

/** Render as human-readable `--version` text (one field per line). */
std::string manifestText(const RunManifest &manifest);

} // namespace cac::obs

#endif // CAC_OBS_MANIFEST_HH
