/**
 * @file
 * Section 3.3 reproduction: holes in a two-level virtual-real
 * hierarchy with uncorrelated pseudo-random L1/L2 indices.
 *
 * Part 1 validates the analytic model P_H = (2^m1 - 1)/2^m2 against
 * measurement under random traffic, sweeping the L2:L1 size ratio
 * (the paper's example: 8KB L1 / 256KB L2 / 32B lines -> P_H = 0.031,
 * i.e. slightly more than 3% of L2 misses create a hole; the product
 * model is accurate for ratios >= 16).
 *
 * Part 2 replays the workload proxies over the paper's 8KB skewed
 * I-Poly L1 backed by a 1MB conventionally indexed 2-way L2 and
 * reports the fraction of L2 misses creating a hole (paper: average
 * below 0.1%, never above 1.2%) and the effect on the L1 miss ratio.
 *
 * Both parts run on the simulation engine: the hierarchies are
 * one-core CoherentSystems on a SweepRunner grid (custom builders in
 * part 1, the "2lvl:" registry grammar in part 2), so cells execute in
 * parallel and report through the engine's unified TargetStats.
 */

#include <cstdio>
#include <memory>
#include <thread>

#include "core/cac.hh"

namespace
{

using namespace cac;

std::unique_ptr<CacheModel>
makeL1(IndexKind kind, std::uint64_t bytes = 8 * 1024, unsigned ways = 2)
{
    const CacheGeometry geom(bytes, 32, ways);
    return std::make_unique<SetAssocCache>(
        geom, makeIndexFn(kind, geom.setBits(), ways, 14));
}

std::unique_ptr<CacheModel>
makeL2(IndexKind kind, std::uint64_t bytes, unsigned ways = 1)
{
    const CacheGeometry geom(bytes, 32, ways);
    return std::make_unique<SetAssocCache>(
        geom,
        makeIndexFn(kind, geom.setBits(), ways, geom.setBits() + 6));
}

} // anonymous namespace

int
main()
{
    std::printf("=== Section 3.3: hole probability, model vs "
                "measured ===\n\n");

    // Part 1: direct-mapped L1/L2 with pseudo-random indices under
    // random traffic. One hierarchy target per L2 size, all driven by a
    // single shared random stream whose span (4MB) is far beyond every
    // L2, keeping L1 residency and L2 victim selection uncorrelated —
    // the model's independence assumption.
    const std::vector<std::uint64_t> l2_sizes_kb = {16, 32, 64, 128,
                                                    256, 512};
    SweepRunner part1(static_cast<unsigned>(l2_sizes_kb.size()));
    for (std::uint64_t l2_kb : l2_sizes_kb) {
        part1.addTarget(
            std::to_string(l2_kb) + "KB", [l2_kb] {
                return std::make_unique<MultiCoreTarget>(
                    "8KB DM / " + std::to_string(l2_kb) + "KB DM",
                    std::make_unique<CoherentSystem>(
                        makeL1(IndexKind::IPoly, 8 * 1024, 1),
                        makeL2(IndexKind::IPoly, l2_kb * 1024),
                        PageMap()),
                    TargetKind::Hierarchy);
            });
    }
    part1.addAddressWorkload("uniform-4MB", [] {
        Rng rng(42);
        constexpr std::uint64_t kSpan = 4ull * 1024 * 1024;
        std::vector<std::uint64_t> addrs;
        addrs.reserve(800000);
        for (int i = 0; i < 800000; ++i)
            addrs.push_back(rng.nextBelow(kSpan) & ~7ull);
        return addrs;
    });

    TextTable sweep;
    sweep.header({"L2 size", "ratio", "model P_H", "measured",
                  "meas P_r", "model P_r"});
    const std::vector<SweepCell> part1_cells = part1.run();
    for (std::size_t i = 0; i < part1_cells.size(); ++i) {
        const std::uint64_t l2_kb = l2_sizes_kb[i];
        const HoleStats &hs = part1_cells[i].target.holes;
        HoleModel model = HoleModel::fromBlockCounts(
            256, l2_kb * 1024 / 32);
        sweep.beginRow();
        sweep.cell(std::to_string(l2_kb) + "KB");
        sweep.cell(static_cast<long long>(l2_kb / 8));
        sweep.cell(model.holePerL2Miss(), 4);
        sweep.cell(hs.holesPerL2Miss(), 4);
        sweep.cell(hs.replacedInL1PerL2Replacement(), 4);
        sweep.cell(model.replacedInL1(), 4);
    }
    std::printf("%s\n", sweep.render().c_str());
    std::printf("paper example: 8KB/256KB DM gives P_H = 0.031; the "
                "product model is accurate for ratios >= 16.\n\n");

    // Part 2: the paper's simulation setup, per proxy, as a
    // (1 target x 18 proxies) engine grid on the registry's "2lvl:"
    // grammar — 8KB 2-way skewed I-Poly L1 over a 1MB 2-way
    // conventionally indexed L2.
    std::printf("--- proxies on 8KB 2-way skewed I-Poly L1 + 1MB "
                "2-way conventional L2 ---\n\n");
    SweepRunner part2(std::thread::hardware_concurrency());
    TargetSpec part2_spec;
    part2_spec.l2SizeBytes = 1024 * 1024;
    part2_spec.l2Ways = 2;
    part2.setTargetSpec(part2_spec);
    part2.addTarget("2lvl:a2-Hp-Sk/a2");
    for (const auto &info : specProxyList()) {
        part2.addTraceWorkload(
            info.name, std::make_shared<const Trace>(
                           buildSpecProxy(info.name, 120000)));
    }

    TextTable table;
    table.header({"proxy", "L2 misses", "holes", "holes/L2miss %",
                  "hole refills", "L1 miss %"});
    RunningStat hole_pct;
    for (const SweepCell &cell : part2.run()) {
        const HoleStats &s = cell.target.holes;
        const double pct = 100.0 * s.holesPerL2Miss();
        hole_pct.add(pct);
        table.beginRow();
        table.cell(cell.workload);
        table.cell(static_cast<long long>(s.l2Misses));
        table.cell(static_cast<long long>(s.holesCreated));
        table.cell(pct, 3);
        table.cell(static_cast<long long>(s.holeRefills));
        table.cell(100.0 * cell.target.l1.loadMissRatio(), 2);
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("holes per L2 miss: mean %.3f%%, max %.3f%% (paper: "
                "avg < 0.1%%, max 1.2%%; holes negligible)\n",
                hole_pct.mean(), hole_pct.max());
    std::printf("note: tomcatv's elevated rate is a proxy-scale "
                "artifact — its hot conflict set is small enough to\n"
                "  collide in L2 through the random page map, so L2 "
                "misses hit L1-resident data; the real program's\n"
                "  multi-MB footprint makes L2 misses cold capacity "
                "misses (see EXPERIMENTS.md).\n");
    return 0;
}
