/**
 * @file
 * cac_ab: the in-process A/B driver. Both trees' libraries are linked
 * into this one process (see side.hh), so a ratio compares the two
 * trees under the same host conditions, pair by pair, instead of two
 * windows taken seconds apart.
 *
 *   cmake -B build-ab -S . -DCMAKE_BUILD_TYPE=Release \
 *         -DCAC_AB_BASE=<another checkout>
 *   cmake --build build-ab --target cac_ab
 *   build-ab/cac_ab --input LABEL --targets T1,T2,... [--pairs N]
 *                   [--cpu K] [--instructions N] [--seed S]
 *
 * LABEL is a "mix:" scenario label or a Spec95 proxy name (built to
 * --instructions records, default 4M, with --seed). Every pair builds
 * the input on each side, then replays it through every target once
 * on each side, target by target; even pairs run the base first, odd
 * pairs the candidate. --cpu pins the process to one CPU. For the
 * build ("setup"), each target and all targets together it prints both
 * sides' median times, the median and interquartile range of the
 * per-pair ratios base / candidate (above 1: the candidate is faster)
 * and the pairs the candidate won. It exits 2 when any target's stats
 * digest differs between the sides.
 *
 * Where a function lands in the binary can move its rate by several
 * percent on its own (a change elsewhere shifts it across cache-line
 * boundaries), so a CAC_AB_BASE build compiles both libraries and
 * both sides of side.cc with -falign-functions=64, which takes that
 * out of a comparison without any extra option.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/cli.hh"
#include "side.hh"

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

/** Quantile @p q of @p v by linear interpolation. */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/** One row of the report: both sides' times over every pair. */
struct Row
{
    std::string name;
    std::vector<double> base;
    std::vector<double> candidate;
    /** "same" or "DIFF" when the row has stats digests, else "-". */
    const char *stats = "same";

    void print() const
    {
        std::vector<double> ratios;
        unsigned wins = 0;
        for (std::size_t i = 0; i < base.size(); ++i) {
            ratios.push_back(base[i] / candidate[i]);
            wins += candidate[i] < base[i] ? 1 : 0;
        }
        std::printf("| %-20s | %9.2f | %9.2f | %6.3fx | %5.3f-%5.3f | "
                    "%2u/%-2zu | %-5s |\n",
                    name.c_str(), 1e3 * quantile(base, 0.5),
                    1e3 * quantile(candidate, 0.5), quantile(ratios, 0.5),
                    quantile(ratios, 0.25), quantile(ratios, 0.75), wins,
                    ratios.size(), stats);
    }
};

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

    const ab::Side *sides[2] = {&ab::baseSide(), &ab::candidateSide()};
    Row setup{"setup", {}, {}, "-"};
    Row all{"all targets", {}, {}, "same"};
    std::vector<Row> rows;
    for (const std::string &t : targets)
        rows.push_back(Row{t, {}, {}, "same"});
    for (unsigned p = 0; p < pairs; ++p) {
        // Even pairs run the base first, odd pairs the candidate; the
        // two sides of a pair run back to back, target by target, so a
        // drift in host speed hits both alike.
        const unsigned order[2] = {p % 2, 1 - p % 2};
        for (unsigned s : order) {
            const double built = sides[s]->build(input, instructions, seed);
            (s == 0 ? setup.base : setup.candidate).push_back(built);
        }
        double total[2] = {0.0, 0.0};
        for (std::size_t t = 0; t < targets.size(); ++t) {
            ab::Replay r[2];
            for (unsigned s : order) {
                r[s] = sides[s]->replay(targets[t]);
                total[s] += r[s].seconds;
            }
            rows[t].base.push_back(r[0].seconds);
            rows[t].candidate.push_back(r[1].seconds);
            if (r[0].digest != r[1].digest)
                rows[t].stats = all.stats = "DIFF";
        }
        all.base.push_back(total[0]);
        all.candidate.push_back(total[1]);
        for (unsigned s : order)
            sides[s]->release();
        std::fprintf(stderr, "pair %u/%u done\n", p + 1, pairs);
    }

    std::printf("input %s, %u pairs, ratio = base / candidate "
                "(above 1: candidate faster)\n\n",
                input.c_str(), pairs);
    std::printf("| %-20s | %9s | %9s | %7s | %11s | %5s | %-5s |\n", "rung",
                "base ms", "cand ms", "ratio", "IQR", "wins", "stats");
    std::printf("|%s|%s|%s|%s|%s|%s|%s|\n", std::string(22, '-').c_str(),
                std::string(11, '-').c_str(), std::string(11, '-').c_str(),
                std::string(9, '-').c_str(), std::string(13, '-').c_str(),
                std::string(7, '-').c_str(), std::string(7, '-').c_str());
    setup.print();
    for (const Row &row : rows)
        row.print();
    all.print();
    if (std::strcmp(all.stats, "same") != 0) {
        std::fprintf(stderr, "cac_ab: stats digests differ\n");
        return 2;
    }
    return 0;
}
