/**
 * @file
 * cac_tracegen — generate instruction traces in the CACTRC02 binary
 * container (checksummed chunks; --format v1 writes the legacy bare
 * CACTRC01 layout), either from the built-in Spec95 workload proxies
 * or from the Figure-1 strided-vector pattern.
 *
 * Usage:
 *   cac_tracegen --list
 *   cac_tracegen --proxy swim --instructions 1000000 --seed 1 \
 *                --out swim.trc
 *   cac_tracegen --stride 512 --elements 64 --sweeps 64 --out s512.trc
 *   cac_tracegen --proxy swim --out swim.trc --format v1
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/cli.hh"
#include "core/cac.hh"

namespace
{

using namespace cac;

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  cac_tracegen --list\n"
        "  cac_tracegen --proxy NAME [--instructions N] [--seed S] "
        "--out FILE\n"
        "  cac_tracegen --stride S [--elements N] [--sweeps K] "
        "--out FILE\n"
        "options:\n"
        "  --format F      container revision: v2 (CACTRC02, "
        "checksummed\n"
        "                  chunks, default) or v1 (legacy CACTRC01)\n"
        "  --chunk N       records per CACTRC02 chunk (default %zu)\n",
        kDefaultTraceChunkRecords);
    std::exit(1);
}

const char *
argValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        usage();
    return argv[++i];
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string proxy;
    std::string out;
    std::size_t instructions = 1000000;
    std::uint64_t seed = 1;
    std::uint64_t stride = 0;
    StrideWorkloadConfig stride_cfg;
    TraceFormat format = TraceFormat::V2;
    std::size_t chunk_records = kDefaultTraceChunkRecords;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--list")) {
            for (const auto &info : specProxyList()) {
                std::printf("%-10s %s %s  %s\n", info.name.c_str(),
                            info.isFp ? "fp " : "int",
                            info.highConflict ? "high-conflict" :
                                                "low-conflict ",
                            info.pattern.c_str());
            }
            return 0;
        } else if (!std::strcmp(arg, "--proxy")) {
            proxy = argValue(argc, argv, i);
        } else if (!std::strcmp(arg, "--instructions")) {
            instructions = countFlag<std::size_t>(
                arg, argValue(argc, argv, i), 1, kMaxProgramRecords);
        } else if (!std::strcmp(arg, "--seed")) {
            seed = countFlag(arg, argValue(argc, argv, i));
        } else if (!std::strcmp(arg, "--stride")) {
            stride = countFlag(arg, argValue(argc, argv, i), 1);
        } else if (!std::strcmp(arg, "--elements")) {
            stride_cfg.numElements =
                countFlag<std::size_t>(arg, argValue(argc, argv, i), 1,
                                       kMaxProgramRecords);
        } else if (!std::strcmp(arg, "--sweeps")) {
            stride_cfg.sweeps =
                countFlag<std::size_t>(arg, argValue(argc, argv, i), 1,
                                       kMaxProgramRecords);
        } else if (!std::strcmp(arg, "--out")) {
            out = argValue(argc, argv, i);
        } else if (!std::strcmp(arg, "--format")) {
            const char *value = argValue(argc, argv, i);
            if (!std::strcmp(value, "v1"))
                format = TraceFormat::V1;
            else if (!std::strcmp(value, "v2"))
                format = TraceFormat::V2;
            else {
                std::fprintf(stderr,
                             "unknown trace format '%s' (want v1 or "
                             "v2)\n",
                             value);
                usage();
            }
        } else if (!std::strcmp(arg, "--chunk")) {
            chunk_records =
                countFlag<std::size_t>(arg, argValue(argc, argv, i), 1);
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", arg);
            usage();
        }
    }

    if (out.empty() || (proxy.empty() && stride == 0))
        usage();
    if (stride_cfg.numElements > kMaxProgramRecords / stride_cfg.sweeps) {
        std::fprintf(stderr,
                     "--elements x --sweeps exceeds %zu records\n",
                     kMaxProgramRecords);
        return 1;
    }

    Trace trace;
    if (!proxy.empty()) {
        trace = buildSpecProxy(proxy, instructions, seed);
    } else {
        stride_cfg.stride = stride;
        TraceBuilder builder(trace);
        for (std::uint64_t addr : makeStrideAddressTrace(stride_cfg))
            builder.load(addr, reg::r(1), reg::r(30));
    }

    writeTrace(trace, out, format, chunk_records);
    std::printf("wrote %zu instructions to %s (%s)\n", trace.size(),
                out.c_str(),
                format == TraceFormat::V1 ? "CACTRC01" : "CACTRC02");
    return 0;
}
