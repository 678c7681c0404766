/**
 * @file
 * cac_ab: the in-process A/B driver, the one tool that times a change.
 * Both trees' libraries are linked into this one process (see
 * side.hh), so a ratio compares the two trees under the same host
 * conditions, pair by pair, instead of two windows taken seconds
 * apart.
 *
 *   cmake -B build-ab -S . -DCMAKE_BUILD_TYPE=Release \
 *         -DCAC_AB_BASE=<another checkout>
 *   cmake --build build-ab --target cac_ab
 *   build-ab/cac_ab --input LABEL --targets T1,T2,... [--pairs N]
 *                   [--cpu K] [--instructions N] [--seed S]
 *
 * LABEL is a "mix:" scenario label or a Spec95 proxy name (built to
 * --instructions records, default 4M, with --seed). Every pair builds
 * the input on each side, then runs every row once on each side, row
 * by row; even pairs run the base first, odd pairs the candidate.
 * --cpu pins the process to one CPU. The rows are the build ("setup"),
 * one in-memory replay per target, four more on the first target
 * (side.hh's modes: "stream", "stream-noverify", "metrics", "shards4")
 * and "all targets", the per-target replays summed. For each it prints
 * both sides' median times, the median and interquartile range of the
 * per-pair ratios base / candidate (above 1: the candidate is faster),
 * the pairs the candidate won, whether the stats digests matched, and
 * the verdict (verdict.hh). Two claims about the candidate follow,
 * each a per-pair ratio of two of its rows: CRC-verified streaming
 * against unverified, and metrics on against plain replay. The last
 * line is all of it as one JSON object, with the host's provenance.
 *
 * Exit status: 3 when a row or a claim fails its verdict, else 2 when
 * any stats digest differs between the sides, else 0.
 *
 * Where a function lands in the binary can move its rate by several
 * percent on its own (a change elsewhere shifts it across cache-line
 * boundaries), so a CAC_AB_BASE build compiles both libraries and
 * both sides of side.cc with -falign-functions=64, which takes that
 * out of a comparison without any extra option.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/cli.hh"
#include "obs/json_util.hh"
#include "obs/manifest.hh"
#include "side.hh"
#include "verdict.hh"

namespace
{

void
usage()
{
    std::fprintf(stderr,
                 "usage: cac_ab --input LABEL --targets T1,T2,... "
                 "[--pairs N] [--cpu K] [--instructions N] [--seed S]\n");
    std::exit(1);
}

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t at = 0;
    while (at <= list.size()) {
        const std::size_t comma = std::min(list.find(',', at), list.size());
        if (comma > at)
            out.push_back(list.substr(at, comma - at));
        at = comma + 1;
    }
    return out;
}

std::string
format(const char *fmt, double a, double b = 0.0, double c = 0.0)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), fmt, a, b, c);
    return buf;
}

/** One row of the report: both sides' times over every pair. */
struct Row
{
    std::string name;
    ab::Mode mode = ab::Mode::Plain;
    std::string target; ///< empty for the setup and total rows
    std::vector<double> base;
    std::vector<double> candidate;
    /** "same" or "DIFF" when the row has stats digests, else "-". */
    const char *stats = "same";

    std::vector<double> ratios() const
    {
        std::vector<double> out;
        for (std::size_t i = 0; i < base.size(); ++i)
            out.push_back(base[i] / candidate[i]);
        return out;
    }

    bool fails() const { return ab::rowFails(ab::spread(ratios())); }

    unsigned wins() const
    {
        unsigned n = 0;
        for (std::size_t i = 0; i < base.size(); ++i)
            n += candidate[i] < base[i] ? 1 : 0;
        return n;
    }

    void print() const
    {
        const ab::Spread s = ab::spread(ratios());
        std::printf("| %-20s | %9.2f | %9.2f | %6.3fx | %5.3f-%5.3f | "
                    "%2u/%-2zu | %-5s | %-4s |\n",
                    name.c_str(), 1e3 * ab::quantile(base, 0.5),
                    1e3 * ab::quantile(candidate, 0.5), s.median, s.q1,
                    s.q3, wins(), base.size(), stats,
                    fails() ? "FAIL" : "ok");
    }

    std::string json() const
    {
        const ab::Spread s = ab::spread(ratios());
        return "{\"name\": \"" + cac::obs::jsonEscape(name)
               + "\", \"n\": " + std::to_string(base.size())
               + format(", \"base_ms\": %.3f, \"cand_ms\": %.3f",
                        1e3 * ab::quantile(base, 0.5),
                        1e3 * ab::quantile(candidate, 0.5))
               + format(", \"ratio\": %.4f, \"iqr\": [%.4f, %.4f]",
                        s.median, s.q1, s.q3)
               + ", \"wins\": " + std::to_string(wins())
               + ", \"stats\": \"" + stats + "\", \"verdict\": \""
               + (fails() ? "fail" : "pass") + "\"}";
    }
};

/**
 * A claim about the candidate alone: per pair, the time of @p plain
 * over the time of @p costly (the costlier path's rate relative to the
 * plain path's) must hold @p floor (see ab::claimFails()).
 */
struct Claim
{
    const char *name;
    const Row &plain;
    const Row &costly;
    double floor;

    ab::Spread spread() const
    {
        std::vector<double> r;
        for (std::size_t i = 0; i < plain.candidate.size(); ++i)
            r.push_back(plain.candidate[i] / costly.candidate[i]);
        return ab::spread(r);
    }

    bool fails() const { return ab::claimFails(spread(), floor); }

    void print() const
    {
        const ab::Spread s = spread();
        std::printf("claim %-26s %6.3fx (IQR %5.3f-%5.3f, floor %.2fx) %s\n",
                    name, s.median, s.q1, s.q3, floor,
                    fails() ? "FAIL" : "ok");
    }

    std::string json() const
    {
        const ab::Spread s = spread();
        return std::string("{\"name\": \"") + name + "\""
               + format(", \"floor\": %.2f, \"ratio\": %.4f", floor,
                        s.median)
               + format(", \"iqr\": [%.4f, %.4f]", s.q1, s.q3)
               + ", \"verdict\": \"" + (fails() ? "fail" : "pass") + "\"}";
    }
};

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t colon = line.find(':');
        if (line.rfind("model name", 0) == 0 && colon != std::string::npos)
            return line.substr(line.find_first_not_of(' ', colon + 1));
    }
    return "unknown";
}

std::string
loadAverage()
{
    double load[3] = {0.0, 0.0, 0.0};
    if (getloadavg(load, 3) != 3)
        return "null";
    return format("[%.2f, %.2f, %.2f]", load[0], load[1], load[2]);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string input;
    std::vector<std::string> targets;
    unsigned pairs = 16;
    long cpu = -1;
    std::uint64_t instructions = 4000000;
    std::uint64_t seed = 1;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        if (i + 1 >= argc)
            usage();
        const char *value = argv[++i];
        if (std::strcmp(flag, "--input") == 0)
            input = value;
        else if (std::strcmp(flag, "--targets") == 0)
            targets = splitCommas(value);
        else if (std::strcmp(flag, "--pairs") == 0)
            pairs = cac::countFlag<unsigned>(flag, value, 1, 10000);
        else if (std::strcmp(flag, "--cpu") == 0)
            cpu = cac::countFlag<long>(flag, value, 0, 1023);
        else if (std::strcmp(flag, "--instructions") == 0)
            instructions = cac::countFlag(flag, value, 1, 1u << 28);
        else if (std::strcmp(flag, "--seed") == 0)
            seed = cac::countFlag(flag, value);
        else
            usage();
    }
    if (input.empty() || targets.empty())
        usage();
    if (cpu >= 0) {
#if defined(__linux__)
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(static_cast<int>(cpu), &set);
        if (sched_setaffinity(0, sizeof(set), &set) != 0)
            std::fprintf(stderr, "cac_ab: cannot pin to CPU %ld\n", cpu);
#else
        std::fprintf(stderr, "cac_ab: --cpu is Linux-only; not pinned\n");
#endif
    }
    const std::string load_before = loadAverage();

    const ab::Side *sides[2] = {&ab::baseSide(), &ab::candidateSide()};
    Row setup{"setup", ab::Mode::Plain, "", {}, {}, "-"};
    Row all{"all targets", ab::Mode::Plain, "", {}, {}, "same"};
    std::vector<Row> rows;
    for (const std::string &t : targets)
        rows.push_back(Row{t, ab::Mode::Plain, t, {}, {}, "same"});
    for (const auto &[name, mode] :
         {std::pair{"stream", ab::Mode::Stream},
          std::pair{"stream-noverify", ab::Mode::StreamNoVerify},
          std::pair{"metrics", ab::Mode::Metrics},
          std::pair{"shards4", ab::Mode::Shards4}})
        rows.push_back(Row{name, mode, targets[0], {}, {}, "same"});
    for (unsigned p = 0; p < pairs; ++p) {
        // Even pairs run the base first, odd pairs the candidate; the
        // two sides of a pair run back to back, row by row, so a drift
        // in host speed hits both alike.
        const unsigned order[2] = {p % 2, 1 - p % 2};
        for (unsigned s : order) {
            const double built = sides[s]->build(input, instructions, seed);
            (s == 0 ? setup.base : setup.candidate).push_back(built);
        }
        double total[2] = {0.0, 0.0};
        for (Row &row : rows) {
            ab::Replay r[2];
            for (unsigned s : order)
                r[s] = sides[s]->replay(row.mode, row.target);
            if (row.mode == ab::Mode::Plain) {
                total[0] += r[0].seconds;
                total[1] += r[1].seconds;
            }
            row.base.push_back(r[0].seconds);
            row.candidate.push_back(r[1].seconds);
            if (r[0].digest != r[1].digest)
                row.stats = all.stats = "DIFF";
        }
        all.base.push_back(total[0]);
        all.candidate.push_back(total[1]);
        for (unsigned s : order)
            sides[s]->release();
        std::fprintf(stderr, "pair %u/%u done\n", p + 1, pairs);
    }
    rows.insert(rows.begin(), setup);
    rows.push_back(all);
    const Row &first = rows[1];
    const Row &stream = rows[targets.size() + 1];
    const Claim claims[] = {
        {"verified/unverified", rows[targets.size() + 2], stream,
         ab::kVerifiedFloor},
        {"metrics/plain", first, rows[targets.size() + 3],
         ab::kMetricsFloor},
    };

    std::printf("input %s, %u pairs, ratio = base / candidate "
                "(above 1: candidate faster)\n\n",
                input.c_str(), pairs);
    std::printf("| %-20s | %9s | %9s | %7s | %11s | %5s | %-5s | %-4s |\n",
                "rung", "base ms", "cand ms", "ratio", "IQR", "wins",
                "stats", "gate");
    std::printf("|%s|%s|%s|%s|%s|%s|%s|%s|\n", std::string(22, '-').c_str(),
                std::string(11, '-').c_str(), std::string(11, '-').c_str(),
                std::string(9, '-').c_str(), std::string(13, '-').c_str(),
                std::string(7, '-').c_str(), std::string(7, '-').c_str(),
                std::string(6, '-').c_str());
    bool failed = false;
    std::string rows_json, claims_json;
    for (const Row &row : rows) {
        row.print();
        failed |= row.fails();
        rows_json += (rows_json.empty() ? "" : ", ") + row.json();
    }
    std::printf("\ncandidate claims, ratio = rate of the costlier path / "
                "plain rate (%s first)\n",
                targets[0].c_str());
    for (const Claim &claim : claims) {
        claim.print();
        failed |= claim.fails();
        claims_json += (claims_json.empty() ? "" : ", ") + claim.json();
    }

    int status = 0;
    if (failed) {
        std::fprintf(stderr, "cac_ab: the candidate fails the verdict\n");
        status = 3;
    } else if (std::strcmp(all.stats, "same") != 0) {
        std::fprintf(stderr, "cac_ab: stats digests differ\n");
        status = 2;
    }
    const cac::obs::RunManifest manifest =
        cac::obs::buildRunManifest("cac_ab");
    std::printf(
        "{\"input\": \"%s\", \"pairs\": %u, \"rows\": [%s], "
        "\"claims\": [%s], \"host\": {\"nproc\": %u, \"cpu\": \"%s\", "
        "\"load_before\": %s, \"load_after\": %s, \"compiler\": \"%s\", "
        "\"candidate\": \"%s\"}, \"status\": %d}\n",
        cac::obs::jsonEscape(input).c_str(), pairs, rows_json.c_str(),
        claims_json.c_str(), std::thread::hardware_concurrency(),
        cac::obs::jsonEscape(cpuModel()).c_str(), load_before.c_str(),
        loadAverage().c_str(), cac::obs::jsonEscape(manifest.compiler).c_str(),
        cac::obs::jsonEscape(manifest.gitDescribe).c_str(), status);
    return status;
}
