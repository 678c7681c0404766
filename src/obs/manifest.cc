#include "obs/manifest.hh"

#include <cinttypes>
#include <cstdio>

#include "index/index_plan.hh"
#include "obs/json_util.hh"
#include "obs/obs.hh"

namespace cac::obs
{

namespace
{

std::string
compilerString()
{
    char buf[64];
#if defined(__clang__)
    std::snprintf(buf, sizeof(buf), "clang++ %d.%d.%d", __clang_major__,
                  __clang_minor__, __clang_patchlevel__);
#elif defined(__GNUC__)
    std::snprintf(buf, sizeof(buf), "g++ %d.%d.%d", __GNUC__,
                  __GNUC_MINOR__, __GNUC_PATCHLEVEL__);
#else
    std::snprintf(buf, sizeof(buf), "unknown");
#endif
    return buf;
}

} // anonymous namespace

RunManifest
buildRunManifest(const std::string &tool)
{
    RunManifest manifest;
    manifest.tool = tool;
#ifdef CAC_GIT_DESCRIBE
    manifest.gitDescribe = CAC_GIT_DESCRIBE;
#else
    manifest.gitDescribe = "unknown";
#endif
    manifest.compiler = compilerString();
#ifdef CAC_BUILD_TYPE
    manifest.buildType = CAC_BUILD_TYPE;
#else
    manifest.buildType = "unknown";
#endif
    manifest.simdDispatch = indexPlanSimdDispatch();
    return manifest;
}

std::string
manifestJson(const RunManifest &manifest, int indent)
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    std::string out = "{\n";
    auto str = [&](const char *key, const std::string &value,
                   bool last = false) {
        out += pad + "  \"" + key + "\": \"" + jsonEscape(value) + "\""
               + (last ? "\n" : ",\n");
    };
    char buf[96];
    auto num = [&](const char *key, std::uint64_t value) {
        std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
        out += pad + "  \"" + key + "\": " + buf + ",\n";
    };
    str("tool", manifest.tool);
    str("git_describe", manifest.gitDescribe);
    str("compiler", manifest.compiler);
    str("build_type", manifest.buildType);
    out += pad + "  \"obs_compiled\": "
           + std::string(manifest.obsCompiled ? "true" : "false") + ",\n";
    str("simd_dispatch", manifest.simdDispatch);
    num("metrics_schema", static_cast<std::uint64_t>(
                              manifest.metricsSchema));
    num("trace_schema", static_cast<std::uint64_t>(manifest.traceSchema));
    str("trace_container", manifest.traceContainer);
    str("workload", manifest.workload);
    str("target_spec", manifest.targetSpec);
    num("seed", manifest.seed);
    num("threads", manifest.threads);
    num("cores", manifest.cores);
    num("shards", manifest.shards);
    std::snprintf(buf, sizeof(buf), "%" PRIu64, manifest.obsWindow);
    out += pad + "  \"obs_window\": " + buf + "\n" + pad + "}";
    return out;
}

std::string
manifestText(const RunManifest &manifest)
{
    std::string out;
    char buf[128];
    out += manifest.tool + " (" + manifest.gitDescribe + ")\n";
    out += "  compiler:        " + manifest.compiler + "\n";
    out += "  build type:      " + manifest.buildType + "\n";
    out += "  telemetry:       compiled in\n";
    out += "  index dispatch:  " + manifest.simdDispatch + "\n";
    std::snprintf(buf, sizeof(buf),
                  "  schemas:         metrics=%d trace=%d container=%s\n",
                  manifest.metricsSchema, manifest.traceSchema,
                  manifest.traceContainer.c_str());
    out += buf;
    return out;
}

} // namespace cac::obs
