/**
 * @file
 * Ablations of the I-Poly design choices called out in DESIGN.md:
 *
 *  1. skewing (distinct polynomial per way) on vs off;
 *  2. irreducible vs reducible modulus;
 *  3. number of hashed address bits v (13 vs 19 vs full);
 *  4. replacement policy under skewed placement.
 *
 * Each ablation is scored on the three high-conflict proxies (where
 * placement matters) and the five low-conflict ones (where it must not
 * hurt). All variants run as one SweepRunner grid — custom cache
 * builders register alongside the registry's "a2" baseline, each proxy
 * trace is built once, and the (variant x proxy) cells execute on a
 * thread pool.
 */

#include <cstdio>
#include <thread>
#include <utility>

#include "core/cac.hh"

namespace
{

using namespace cac;

SweepRunner::OrgBuilder
ipolyCache(const std::vector<Gf2Poly> &polys, unsigned input_bits,
           ReplKind repl = ReplKind::Lru)
{
    return [polys, input_bits, repl] {
        const CacheGeometry geom = CacheGeometry::paperL1_8k();
        return std::make_unique<SetAssocCache>(
            geom, std::make_unique<IPolyIndex>(polys, input_bits), repl,
            WriteAllocate::No);
    };
}

const std::vector<std::string> kBad = {"tomcatv", "swim", "wave5"};
const std::vector<std::string> kGood = {"gcc", "compress", "su2cor",
                                        "mgrid", "turb3d"};

} // anonymous namespace

int
main()
{
    std::printf("=== Ablations of the I-Poly design choices ===\n");
    std::printf("(avg load miss %% on the 3 bad proxies / 5 good "
                "proxies)\n\n");

    const Gf2Poly p0 = PolyCatalog::irreducible(7, 0);
    const Gf2Poly p1 = PolyCatalog::irreducible(7, 1);
    const Gf2Poly reducible{0x88};   // x^7 + x^3 = x^3(x^4 + 1)
    const Gf2Poly trivial{0x80};     // x^7: degenerates to bit select

    OrgSpec spec;
    spec.writeAllocate = false;
    SweepRunner sweep(std::thread::hardware_concurrency());
    sweep.setSpec(spec);

    // 1. Skewing.
    sweep.addOrg("ipoly skewed (P0,P1), v=14", ipolyCache({p0, p1}, 14));
    sweep.addOrg("ipoly unskewed (P0,P0), v=14",
                 ipolyCache({p0, p0}, 14));

    // 2. Polynomial quality.
    sweep.addOrg("reducible modulus x^7+x^3",
                 ipolyCache({reducible, reducible}, 14));
    sweep.addOrg("trivial modulus x^7 (bit select)",
                 ipolyCache({trivial, trivial}, 14));

    // 3. Hashed input width (paper section 3.1: 13 unmapped bits with
    // 256KB pages vs 19 bits with the virtual-real hierarchy).
    sweep.addOrg("skewed, v=8 (13 addr bits)", ipolyCache({p0, p1}, 8));
    sweep.addOrg("skewed, v=14 (19 addr bits)", ipolyCache({p0, p1}, 14));
    sweep.addOrg("skewed, v=20 (25 addr bits)", ipolyCache({p0, p1}, 20));

    // 4. Replacement policy under skewed placement.
    const std::pair<ReplKind, const char *> policies[] = {
        {ReplKind::Lru, "lru"},
        {ReplKind::Fifo, "fifo"},
        {ReplKind::Random, "random"},
        {ReplKind::Nru, "nru"}};
    for (const auto &[kind, policy_name] : policies) {
        sweep.addOrg(std::string("skewed v=14, repl=") + policy_name,
                     ipolyCache({p0, p1}, 14, kind));
    }

    // Baseline for scale, straight from the registry.
    sweep.addOrg("conventional a2",
                 [spec] { return makeOrganization("a2", spec); });

    // Score every variant on the same eight proxy traces, built once.
    for (const auto &name : kBad)
        sweep.addTraceWorkload(name, buildSpecProxy(name, 120000));
    for (const auto &name : kGood)
        sweep.addTraceWorkload(name, buildSpecProxy(name, 120000));

    const std::vector<SweepCell> cells = sweep.run();

    TextTable table;
    table.header({"variant", "bad miss%", "good miss%"});
    const std::size_t orgs = sweep.numOrgs();
    for (std::size_t o = 0; o < orgs; ++o) {
        std::vector<double> bad, good;
        for (std::size_t w = 0; w < sweep.numWorkloads(); ++w) {
            const double pct =
                cells[w * orgs + o].stats.loadMissRatio() * 100.0;
            (w < kBad.size() ? bad : good).push_back(pct);
        }
        table.beginRow();
        table.cell(cells[o].org);
        table.cell(arithmeticMean(bad), 2);
        table.cell(arithmeticMean(good), 2);
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("expected: skew helps worst-case strides; reducible/"
                "trivial moduli regress toward conventional;\n"
                "  v=8 weakens conflict resistance (fewer hashed "
                "bits); replacement choice is second-order.\n");
    return 0;
}
