/**
 * @file
 * cac_serve: the persistent cache-advisor service.
 *
 * Binds the serve/ Server on loopback and runs until a SHUTDOWN
 * request arrives. The wire protocol, request/response payloads and
 * the operations story (tuning --workers/--queue-depth/--memo-bytes,
 * reading the serve.* saturation metrics) are specified in
 * docs/SERVICE.md; drive it interactively with tools/cac_bench_client.
 *
 * With --metrics-out the server writes the same metrics artifact
 * shape as cac_sim (manifest + counters + gauges + histograms +
 * windows) on clean shutdown, validated by tools/check_obs.py.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/cli.hh"
#include "common/logging.hh"
#include "obs/json_util.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "serve/server.hh"

namespace
{

using namespace cac;

void
usage()
{
    std::fprintf(
        stderr,
        "usage: cac_serve [options]\n"
        "  --port N         listen port (default 0 = kernel-assigned)\n"
        "  --port-file F    write the bound port number to F\n"
        "  --workers N      concurrent advisor computations "
        "(default 2)\n"
        "  --queue-depth N  admitted waiters beyond the workers "
        "(default 8)\n"
        "  --job-threads N  SweepRunner threads per computation "
        "(default 1)\n"
        "  --memo-bytes N   memo cache byte budget (default 8388608)\n"
        "  --deadline-ms N  default per-cell deadline (default 60000)\n"
        "  --metrics-out F  write the metrics JSON artifact on "
        "shutdown\n"
        "  --version        print the run manifest and exit\n"
        "\n"
        "protocol and operations guide: docs/SERVICE.md\n");
    std::exit(1);
}

const char *
argValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for '%s'\n", argv[i]);
        usage();
    }
    return argv[++i];
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

} // anonymous namespace

int
main(int argc, char **argv)
{
    serve::ServeConfig config;
    std::string port_file;
    std::string metrics_out;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--port") {
            config.port = countFlag<unsigned short>(
                arg.c_str(), argValue(argc, argv, i));
        } else if (arg == "--port-file") {
            port_file = argValue(argc, argv, i);
        } else if (arg == "--workers") {
            config.workers = countFlag<unsigned>(
                arg.c_str(), argValue(argc, argv, i));
        } else if (arg == "--queue-depth") {
            config.queueDepth = countFlag<unsigned>(
                arg.c_str(), argValue(argc, argv, i));
        } else if (arg == "--job-threads") {
            config.jobThreads = countFlag<unsigned>(
                arg.c_str(), argValue(argc, argv, i));
        } else if (arg == "--memo-bytes") {
            config.memoBytes = countFlag<std::size_t>(
                arg.c_str(), argValue(argc, argv, i));
        } else if (arg == "--deadline-ms") {
            config.defaultDeadlineMs = countFlag<unsigned>(
                arg.c_str(), argValue(argc, argv, i));
        } else if (arg == "--metrics-out") {
            metrics_out = argValue(argc, argv, i);
        } else if (arg == "--version") {
            const obs::RunManifest manifest =
                obs::buildRunManifest("cac_serve");
            std::printf("%s", obs::manifestText(manifest).c_str());
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            usage();
        }
    }
    if (config.workers < 1)
        fatal("--workers must be at least 1");
    if (config.jobThreads < 1)
        fatal("--job-threads must be at least 1");

    serve::Server server(config);
    if (Error err = server.start())
        fatal("%s", err.message().c_str());

    std::printf("cac_serve listening on 127.0.0.1:%u "
                "(workers=%u queue-depth=%u memo-bytes=%zu)\n",
                static_cast<unsigned>(server.port()), config.workers,
                config.queueDepth, config.memoBytes);
    std::fflush(stdout);
    if (!port_file.empty()) {
        writeArtifact(port_file,
                      std::to_string(server.port()) + "\n");
    }

    server.wait(); // until a SHUTDOWN request

    if (!metrics_out.empty()) {
        obs::RunManifest manifest = obs::buildRunManifest("cac_serve");
        manifest.threads = config.jobThreads;
        std::string out = "{\n  \"manifest\": ";
        out += obs::manifestJson(manifest, 2);
        out += ",\n";
        out += obs::metricsJson(obs::Registry::global().snapshot(), 2);
        out += ",\n  \"windows\": []\n}\n";
        writeArtifact(metrics_out, out);
    }
    std::printf("cac_serve: shut down cleanly\n");
    return 0;
}
