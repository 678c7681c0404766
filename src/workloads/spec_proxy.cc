#include "workloads/spec_proxy.hh"

#include <functional>

#include "common/huge_pages.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "trace/builder.hh"
#include "workloads/patterns.hh"

namespace cac
{

namespace
{

using namespace patterns;

/**
 * Layout constants. The conventional index of the paper's 8KB 2-way L1
 * is address bits [5,12), so addresses congruent modulo 4KB (the way
 * size) collide; kConflictAlign-aligned bases are the conflict lever.
 * Low-conflict arrays get odd block-offset padding instead. Conflict
 * arrays stay inside a 512KB window so the 19-bit I-Poly hash sees
 * distinct inputs for every base.
 */
constexpr std::uint64_t kConflictAlign = 4096;
constexpr std::uint64_t kKilo = 1024;

/** A proxy's build function appends ~target instructions. */
using BuildFn =
    std::function<void(TraceBuilder &, Rng &, std::size_t)>;

struct ProxyDef
{
    SpecProxyInfo info;
    BuildFn build;
};

/** Allocate @p n arrays of @p bytes each, co-mapped mod 4KB. */
std::vector<std::uint64_t>
conflictArrays(ArrayArena &arena, unsigned n, std::uint64_t bytes)
{
    std::vector<std::uint64_t> bases;
    for (unsigned i = 0; i < n; ++i)
        bases.push_back(arena.alloc(bytes, kConflictAlign));
    return bases;
}

/**
 * Allocate @p n arrays of @p bytes each with odd block-granularity
 * padding so their conventional set mappings are decorrelated.
 */
std::vector<std::uint64_t>
paddedArrays(ArrayArena &arena, unsigned n, std::uint64_t bytes)
{
    std::vector<std::uint64_t> bases;
    for (unsigned i = 0; i < n; ++i)
        bases.push_back(arena.alloc(bytes, 32, 32 * (2 * i + 1)));
    return bases;
}

// ---------------------------------------------------------------------
// Integer proxies. Mix: a dominant resident working set (hits under any
// placement) plus an irregular cold component sized to hit the paper's
// miss ratio; conflicts play no role, as in the real programs.
// ---------------------------------------------------------------------

/** go: branch-heavy board search; ~11% load miss from hash probes. */
void
buildGo(TraceBuilder &b, Rng &rng, std::size_t target)
{
    ArrayArena arena;
    const std::uint64_t board = arena.alloc(3 * kKilo, 32, 32);
    const std::uint64_t hash = arena.alloc(224 * kKilo, 32, 96);
    PatternConfig cfg;
    cfg.computeOps = 3;
    cfg.emitStore = false;
    while (b.size() < target) {
        branchyWork(b, rng, board, 3 * kKilo, 160, 0.42, cfg);
        randomAccess(b, rng, hash, 224 * kKilo, 18, cfg);
    }
}

/** m88ksim: tight simulator loop over a small resident working set. */
void
buildM88ksim(TraceBuilder &b, Rng &rng, std::size_t target)
{
    ArrayArena arena;
    const auto regs = paddedArrays(arena, 2, kKilo);
    const std::uint64_t mem = arena.alloc(96 * kKilo, 32, 32);
    PatternConfig cfg;
    cfg.computeOps = 3;
    PhaseCursor c1;
    while (b.size() < target) {
        streamSweep(b, regs, kKilo / 8, 224, c1, cfg);
        PatternConfig decode = cfg;
        decode.emitStore = false;
        randomAccess(b, rng, mem, 96 * kKilo, 10, decode);
        branchyWork(b, rng, regs[0], kKilo, 64, 0.85, decode);
    }
}

/** gcc: irregular medium-footprint IR walking plus table scans. */
void
buildGcc(TraceBuilder &b, Rng &rng, std::size_t target)
{
    ArrayArena arena;
    const std::uint64_t ir = arena.alloc(160 * kKilo, 32, 32);
    const auto tables = paddedArrays(arena, 2, 2 * kKilo);
    PatternConfig cfg;
    cfg.computeOps = 2;
    PhaseCursor c1;
    while (b.size() < target) {
        PatternConfig walk = cfg;
        walk.emitStore = false;
        randomAccess(b, rng, ir, 160 * kKilo, 34, walk);
        streamSweep(b, tables, 2 * kKilo / 8, 160, c1, cfg);
        branchyWork(b, rng, tables[0], 2 * kKilo, 48, 0.6, walk);
    }
}

/** compress: hash-table probes over a large table + resident buffer. */
void
buildCompress(TraceBuilder &b, Rng &rng, std::size_t target)
{
    ArrayArena arena;
    const std::uint64_t htab = arena.alloc(256 * kKilo, 32, 32);
    const auto buf = paddedArrays(arena, 1, 2 * kKilo);
    PatternConfig cfg;
    cfg.computeOps = 2;
    PhaseCursor c1;
    while (b.size() < target) {
        randomAccess(b, rng, htab, 256 * kKilo, 22, cfg);
        streamSweep(b, buf, 2 * kKilo / 8, 160, c1, cfg);
    }
}

/** li: list-interpreter pointer chasing in a mostly resident heap. */
void
buildLi(TraceBuilder &b, Rng &rng, std::size_t target)
{
    ArrayArena arena;
    const std::uint64_t heap = arena.alloc(6 * kKilo, 32, 32);
    const std::uint64_t cold = arena.alloc(64 * kKilo, 32, 96);
    const auto cycle = makeChaseCycle(rng, 6 * kKilo / 64);
    PatternConfig cfg;
    cfg.computeOps = 2;
    cfg.emitStore = false;
    PhaseCursor c1;
    while (b.size() < target) {
        pointerChase(b, cycle, heap, 64, 192, c1, cfg);
        randomAccess(b, rng, cold, 64 * kKilo, 22, cfg);
    }
}

/** ijpeg: blocked streaming with high compute density. */
void
buildIjpeg(TraceBuilder &b, Rng &rng, std::size_t target)
{
    ArrayArena arena;
    const auto planes = paddedArrays(arena, 3, kKilo);
    const auto image = paddedArrays(arena, 1, 96 * kKilo);
    PatternConfig cfg;
    cfg.computeOps = 5;
    PhaseCursor c1, c2;
    while (b.size() < target) {
        streamSweep(b, planes, kKilo / 8, 192, c1, cfg);
        streamSweep(b, image, 96 * kKilo / 8, 72, c2, cfg);
        (void)rng;
    }
}

/** perl: hash lookups + pointer chasing over a medium heap. */
void
buildPerl(TraceBuilder &b, Rng &rng, std::size_t target)
{
    ArrayArena arena;
    const std::uint64_t heap = arena.alloc(5 * kKilo, 32, 32);
    const std::uint64_t symtab = arena.alloc(128 * kKilo, 32, 96);
    const auto cycle = makeChaseCycle(rng, 5 * kKilo / 64);
    PatternConfig cfg;
    cfg.computeOps = 2;
    cfg.emitStore = false;
    PhaseCursor c1;
    while (b.size() < target) {
        pointerChase(b, cycle, heap, 64, 144, c1, cfg);
        randomAccess(b, rng, symtab, 128 * kKilo, 24, cfg);
        branchyWork(b, rng, heap, 5 * kKilo, 48, 0.65, cfg);
    }
}

/** vortex: database record accesses over several object stores. */
void
buildVortex(TraceBuilder &b, Rng &rng, std::size_t target)
{
    ArrayArena arena;
    const std::uint64_t store1 = arena.alloc(144 * kKilo, 32, 32);
    const auto log = paddedArrays(arena, 2, 2 * kKilo);
    PatternConfig cfg;
    cfg.computeOps = 2;
    PhaseCursor c1;
    while (b.size() < target) {
        PatternConfig lookup = cfg;
        lookup.emitStore = false;
        randomAccess(b, rng, store1, 144 * kKilo, 22, lookup);
        streamSweep(b, log, 2 * kKilo / 8, 144, c1, cfg);
    }
}

// ---------------------------------------------------------------------
// High-conflict FP proxies (the paper's "bad" programs)
// ---------------------------------------------------------------------

/**
 * tomcatv: column stencils over five mesh arrays whose leading
 * dimension is a power of two. The 4KB column stride puts an entire
 * column into one conventional set, so the co-mapped arrays thrash an
 * 8KB 2-way cache; stride-2^k sequences are exactly what I-Poly spreads
 * conflict-free. A residual streaming pass adds placement-neutral
 * capacity misses.
 */
void
buildTomcatv(TraceBuilder &b, Rng &rng, std::size_t target)
{
    (void)rng;
    ArrayArena arena;
    const auto mesh = conflictArrays(arena, 5, 66 * kKilo);
    const auto res = paddedArrays(arena, 2, 128 * kKilo);
    PatternConfig cfg;
    cfg.fp = true;
    cfg.computeOps = 4;
    cfg.interleaveByPoint = true;
    PhaseCursor c1, c2;
    while (b.size() < target) {
        // Column-direction stencil: rows 4KB apart, 16 per column.
        stencilSweep(b, mesh, 16, 4096, 46, c1, cfg);
        // Residual pass: streaming over two large decorrelated arrays.
        PatternConfig stream = cfg;
        stream.interleaveByPoint = false;
        streamSweep(b, res, 128 * kKilo / 8, 340, c2, stream);
    }
}

/**
 * swim: shallow-water stencils over nine co-mapped grid arrays in
 * lockstep (point-interleaved, so the conventional cache cannot even
 * exploit within-block reuse), plus a resident coefficient loop.
 */
void
buildSwim(TraceBuilder &b, Rng &rng, std::size_t target)
{
    (void)rng;
    ArrayArena arena;
    const auto grids = conflictArrays(arena, 9, 52 * kKilo);
    const auto coeff = paddedArrays(arena, 2, kKilo);
    PatternConfig cfg;
    cfg.fp = true;
    cfg.computeOps = 4;
    cfg.interleaveByPoint = true;
    PhaseCursor c1, c2;
    while (b.size() < target) {
        stencilSweep(b, grids, 48 * kKilo / 8, 8, 120, c1, cfg);
        streamSweep(b, coeff, kKilo / 8, 800, c2, cfg);
    }
}

/**
 * wave5: particle-in-cell: strided field gathers over four co-mapped
 * arrays (by-array order: milder than swim) plus an irregular particle
 * phase that is placement-neutral.
 */
void
buildWave5(TraceBuilder &b, Rng &rng, std::size_t target)
{
    ArrayArena arena;
    const auto fields = conflictArrays(arena, 4, 66 * kKilo);
    const std::uint64_t particles = arena.alloc(96 * kKilo, 32, 32);
    const auto local = paddedArrays(arena, 2, 2 * kKilo);
    PatternConfig cfg;
    cfg.fp = true;
    cfg.computeOps = 3;
    cfg.interleaveByPoint = true;
    // Independent particle updates: no loop-carried reduction, so the
    // gather's conflict misses sit on the critical path (the IPC lever
    // of Table 3).
    cfg.carryChain = false;
    cfg.serialRandom = false; // particle gathers are independent
    PatternConfig gather = cfg;
    gather.computeOps = 4;
    gather.accumulators = 2;
    PhaseCursor c1, c2;
    while (b.size() < target) {
        stencilSweep(b, fields, 16, 1024, 20, c1, gather);
        randomAccess(b, rng, particles, 64 * kKilo, 30, cfg);
        streamSweep(b, local, 2 * kKilo / 8, 150, c2, cfg);
    }
}

// ---------------------------------------------------------------------
// Low-conflict FP proxies
// ---------------------------------------------------------------------

/** su2cor: streaming lattice sweeps, decorrelated bases. */
void
buildSu2cor(TraceBuilder &b, Rng &rng, std::size_t target)
{
    (void)rng;
    ArrayArena arena;
    const auto lattice = paddedArrays(arena, 4, 128 * kKilo);
    const auto small = paddedArrays(arena, 2, 2 * kKilo);
    PatternConfig cfg;
    cfg.fp = true;
    cfg.computeOps = 3;
    PhaseCursor c1, c2;
    while (b.size() < target) {
        streamSweep(b, lattice, 128 * kKilo / 8, 144, c1, cfg);
        streamSweep(b, small, 2 * kKilo / 8, 320, c2, cfg);
    }
}

/** hydro2d: 2D hydro stencils over big arrays, odd leading dimension. */
void
buildHydro2d(TraceBuilder &b, Rng &rng, std::size_t target)
{
    (void)rng;
    ArrayArena arena;
    const auto grids = paddedArrays(arena, 3, 192 * kKilo);
    PatternConfig cfg;
    cfg.fp = true;
    cfg.computeOps = 3;
    PhaseCursor c1, c2;
    while (b.size() < target) {
        stencilSweep(b, grids, 192 * kKilo / 8, 8, 224, c1, cfg);
        streamSweep(b, grids, 192 * kKilo / 8, 260, c2, cfg);
    }
}

/** applu: SSOR sweeps with good reuse over mid-sized arrays. */
void
buildApplu(TraceBuilder &b, Rng &rng, std::size_t target)
{
    (void)rng;
    ArrayArena arena;
    const auto blocks = paddedArrays(arena, 3, 96 * kKilo);
    const auto local = paddedArrays(arena, 2, kKilo);
    PatternConfig cfg;
    cfg.fp = true;
    cfg.computeOps = 6;
    PhaseCursor c1, c2;
    while (b.size() < target) {
        stencilSweep(b, blocks, 96 * kKilo / 8, 8, 128, c1, cfg);
        streamSweep(b, local, kKilo / 8, 96, c2, cfg);
    }
}

/** mgrid: multigrid relaxation, coarse grids resident. */
void
buildMgrid(TraceBuilder &b, Rng &rng, std::size_t target)
{
    (void)rng;
    ArrayArena arena;
    const auto fine = paddedArrays(arena, 2, 128 * kKilo);
    const auto coarse = paddedArrays(arena, 2, 2 * kKilo);
    PatternConfig cfg;
    cfg.fp = true;
    cfg.computeOps = 5;
    PhaseCursor c1, c2;
    while (b.size() < target) {
        stencilSweep(b, fine, 128 * kKilo / 8, 8, 96, c1, cfg);
        stencilSweep(b, coarse, 2 * kKilo / 8, 8, 160, c2, cfg);
    }
}

/** turb3d: FFT-ish passes, compute heavy, mostly resident. */
void
buildTurb3d(TraceBuilder &b, Rng &rng, std::size_t target)
{
    (void)rng;
    ArrayArena arena;
    const auto planes = paddedArrays(arena, 2, kKilo);
    const auto volume = paddedArrays(arena, 1, 96 * kKilo);
    PatternConfig cfg;
    cfg.fp = true;
    cfg.computeOps = 7;
    PhaseCursor c1, c2;
    while (b.size() < target) {
        streamSweep(b, planes, kKilo / 8, 224, c1, cfg);
        streamSweep(b, volume, 96 * kKilo / 8, 96, c2, cfg);
    }
}

/** apsi: mixed streaming + irregular met-field accesses. */
void
buildApsi(TraceBuilder &b, Rng &rng, std::size_t target)
{
    ArrayArena arena;
    const auto fields = paddedArrays(arena, 3, 96 * kKilo);
    const std::uint64_t scratch = arena.alloc(64 * kKilo, 32, 32);
    const auto local = paddedArrays(arena, 2, 2 * kKilo);
    PatternConfig cfg;
    cfg.fp = true;
    cfg.computeOps = 3;
    PhaseCursor c1, c2;
    while (b.size() < target) {
        streamSweep(b, fields, 96 * kKilo / 8, 96, c1, cfg);
        randomAccess(b, rng, scratch, 64 * kKilo, 10, cfg);
        streamSweep(b, local, 2 * kKilo / 8, 180, c2, cfg);
    }
}

/** fpppp: enormous FP basic blocks, tiny data footprint. */
void
buildFpppp(TraceBuilder &b, Rng &rng, std::size_t target)
{
    (void)rng;
    ArrayArena arena;
    const auto integrals = paddedArrays(arena, 2, 2 * kKilo);
    const auto spill = paddedArrays(arena, 1, 64 * kKilo);
    PatternConfig cfg;
    cfg.fp = true;
    cfg.computeOps = 10;
    PhaseCursor c1, c2;
    while (b.size() < target) {
        streamSweep(b, integrals, 2 * kKilo / 8, 224, c1, cfg);
        streamSweep(b, spill, 64 * kKilo / 8, 20, c2, cfg);
    }
}

const std::vector<ProxyDef> &
defs()
{
    static const std::vector<ProxyDef> kDefs = {
        {{"go", false, false, "branchy board search + hash probes"},
         buildGo},
        {{"m88ksim", false, false, "small resident simulator loop"},
         buildM88ksim},
        {{"gcc", false, false, "irregular IR walk + table scans"},
         buildGcc},
        {{"compress", false, false, "hash table + resident buffer"},
         buildCompress},
        {{"li", false, false, "pointer chasing in a small heap"},
         buildLi},
        {{"ijpeg", false, false, "blocked streaming, compute dense"},
         buildIjpeg},
        {{"perl", false, false, "hash lookups + heap chasing"},
         buildPerl},
        {{"vortex", false, false, "database record accesses"},
         buildVortex},
        {{"tomcatv", true, true, "power-of-two column stencils x5"},
         buildTomcatv},
        {{"swim", true, true, "nine co-mapped grid stencils"},
         buildSwim},
        {{"su2cor", true, false, "lattice streaming, padded bases"},
         buildSu2cor},
        {{"hydro2d", true, false, "2D stencils, odd leading dim"},
         buildHydro2d},
        {{"applu", true, false, "SSOR sweeps with reuse"},
         buildApplu},
        {{"mgrid", true, false, "multigrid relaxation"},
         buildMgrid},
        {{"turb3d", true, false, "compute-heavy resident FFT"},
         buildTurb3d},
        {{"apsi", true, false, "streaming + irregular scratch"},
         buildApsi},
        {{"fpppp", true, false, "huge FP blocks, tiny footprint"},
         buildFpppp},
        {{"wave5", true, true, "strided field gathers x4"},
         buildWave5},
    };
    return kDefs;
}

const ProxyDef &
findDef(const std::string &name)
{
    for (const auto &def : defs()) {
        if (def.info.name == name)
            return def;
    }
    fatal("unknown Spec95 proxy '%s'", name.c_str());
}

} // anonymous namespace

const std::vector<SpecProxyInfo> &
specProxyList()
{
    static const std::vector<SpecProxyInfo> kList = [] {
        std::vector<SpecProxyInfo> list;
        for (const auto &def : defs())
            list.push_back(def.info);
        return list;
    }();
    return kList;
}

const SpecProxyInfo &
specProxyInfo(const std::string &name)
{
    return findDef(name).info;
}

bool
knownSpecProxy(const std::string &name)
{
    for (const auto &def : defs()) {
        if (def.info.name == name)
            return true;
    }
    return false;
}

Trace
buildSpecProxy(const std::string &name, std::size_t target_instructions,
               std::uint64_t seed)
{
    CAC_ASSERT(target_instructions <= kMaxProgramRecords);
    Trace trace;
    trace.reserve(target_instructions + target_instructions / 8);
    // Huge pages only under the n records certainly written (see
    // adviseHugePages()).
    adviseHugePages(trace.data(), target_instructions * sizeof(TraceRecord));
    appendSpecProxy(trace, name, target_instructions, seed);
    return trace;
}

void
appendSpecProxy(Trace &trace, const std::string &name,
                std::size_t target_instructions, std::uint64_t seed)
{
    const ProxyDef &def = findDef(name);
    TraceBuilder builder(trace);
    Rng rng(seed * 0x9E3779B97F4A7C15ull
            + std::hash<std::string>{}(name));
    def.build(builder, rng, target_instructions);
}

} // namespace cac
