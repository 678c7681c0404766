/**
 * @file
 * Equivalence of the batched access fast paths with the scalar path:
 * for every registered organization, accessBatch() over same-kind runs
 * and accessMixed() over mixed load/store batches must leave the cache
 * with CacheStats bit-identical to an access()-per-address loop over
 * the same stream — including the non-LRU variants, and
 * a decorator that only overrides accessBatch() (the base
 * accessMixed() fallback). A seeded oracle draws SetAssocCache
 * configurations and holds the batch, scalar and virtual-index paths
 * equal on each.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/set_assoc.hh"
#include "common/rng.hh"
#include "core/experiment.hh"
#include "core/registry.hh"
#include "index/factory.hh"
#include "index/index_plan.hh"
#include "index/matrix_index.hh"
#include "poly/catalog.hh"

namespace cac
{
namespace
{

struct Op
{
    std::uint64_t addr;
    bool isWrite;
};

/** Deterministic mixed stream: strided sweeps + random traffic. */
std::vector<Op>
mixedStream()
{
    std::vector<Op> ops;
    Rng rng(1997);
    // Pathological power-of-two strides exercise conflict handling...
    for (int sweep = 0; sweep < 4; ++sweep) {
        for (std::uint64_t i = 0; i < 256; ++i) {
            ops.push_back({(1 << 20) + i * 4096, false});
            ops.push_back({(1 << 21) + i * 64, (i & 3) == 0});
        }
    }
    // ...and random traffic exercises eviction paths.
    for (int i = 0; i < 20000; ++i) {
        ops.push_back({rng.nextBelow(1 << 18), rng.nextBelow(4) == 0});
    }
    return ops;
}

void
expectStatsEqual(const CacheStats &a, const CacheStats &b,
                 const std::string &label)
{
    EXPECT_EQ(a.loads, b.loads) << label;
    EXPECT_EQ(a.stores, b.stores) << label;
    EXPECT_EQ(a.loadMisses, b.loadMisses) << label;
    EXPECT_EQ(a.storeMisses, b.storeMisses) << label;
    EXPECT_EQ(a.fills, b.fills) << label;
    EXPECT_EQ(a.evictions, b.evictions) << label;
    EXPECT_EQ(a.writebacks, b.writebacks) << label;
    EXPECT_EQ(a.invalidations, b.invalidations) << label;
    EXPECT_EQ(a.firstProbeHits, b.firstProbeHits) << label;
    EXPECT_EQ(a.secondProbeHits, b.secondProbeHits) << label;
}

class BatchEquivalence : public ::testing::TestWithParam<std::string>
{
};

TEST_P(BatchEquivalence, BatchMatchesScalarOnMixedStream)
{
    const std::vector<Op> ops = mixedStream();

    for (bool write_allocate : {true, false}) {
        OrgSpec spec;
        spec.writeAllocate = write_allocate;
        auto scalar = makeOrganization(GetParam(), spec);
        auto batched = makeOrganization(GetParam(), spec);

        // Scalar reference: one virtual access() per operation.
        for (const Op &op : ops)
            scalar->access(op.addr, op.isWrite);

        // Batch path: maximal same-kind runs, exactly as the
        // experiment drivers dispatch them.
        std::vector<std::uint64_t> run;
        bool run_is_write = false;
        auto flush = [&] {
            if (!run.empty()) {
                batched->accessBatch(run.data(), run.size(),
                                     run_is_write);
                run.clear();
            }
        };
        for (const Op &op : ops) {
            if (op.isWrite != run_is_write) {
                flush();
                run_is_write = op.isWrite;
            }
            run.push_back(op.addr);
        }
        flush();

        expectStatsEqual(scalar->stats(), batched->stats(),
                         GetParam() + (write_allocate ? "/wa" : "/nwa"));
        // Contents must match too: the scalar cache's residency decides.
        for (std::uint64_t addr = 1 << 20; addr < (1 << 20) + 64 * 4096;
             addr += 4096) {
            EXPECT_EQ(scalar->probe(addr), batched->probe(addr))
                << GetParam() << " addr " << addr;
        }
    }
}

/**
 * Drive @p cache with accessMixed() batches of sizes drawn from
 * @p sizes in [1, @p max_batch], so tile boundaries and batch tails
 * land at varied stream positions.
 */
void
feedMixed(CacheModel &cache, const std::vector<Op> &ops, Rng &sizes,
          std::size_t max_batch)
{
    std::vector<std::uint64_t> addrs;
    std::unique_ptr<bool[]> writes(new bool[ops.size()]);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        addrs.push_back(ops[i].addr);
        writes[i] = ops[i].isWrite;
    }
    std::size_t at = 0;
    while (at < ops.size()) {
        const std::size_t n = std::min<std::size_t>(
            1 + sizes.nextBelow(max_batch), ops.size() - at);
        cache.accessMixed(addrs.data() + at, writes.get() + at, n);
        at += n;
    }
}

void
expectMixedMatchesScalar(CacheModel &scalar, CacheModel &mixed,
                         const std::vector<Op> &ops,
                         const std::string &label)
{
    for (const Op &op : ops)
        scalar.access(op.addr, op.isWrite);
    Rng sizes(7);
    feedMixed(mixed, ops, sizes, MemRunGatherer::kMaxRun);
    expectStatsEqual(scalar.stats(), mixed.stats(), label);
    for (std::uint64_t addr = 1 << 20; addr < (1 << 20) + 64 * 4096;
         addr += 4096) {
        EXPECT_EQ(scalar.probe(addr), mixed.probe(addr))
            << label << " addr " << addr;
    }
}

TEST_P(BatchEquivalence, MixedBatchMatchesScalarOnMixedStream)
{
    const std::vector<Op> ops = mixedStream();
    for (bool write_allocate : {true, false}) {
        OrgSpec spec;
        spec.writeAllocate = write_allocate;
        auto scalar = makeOrganization(GetParam(), spec);
        auto mixed = makeOrganization(GetParam(), spec);
        expectMixedMatchesScalar(
            *scalar, *mixed, ops,
            GetParam() + (write_allocate ? "/wa" : "/nwa"));
    }
}

TEST_P(BatchEquivalence, GatheredTraceReplayMatchesScalar)
{
    // The replay path end to end: MemRunGatherer over a record stream
    // (non-memory records interleaved) into accessMixed().
    const std::vector<Op> ops = mixedStream();
    Trace trace;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (i % 3 == 0) {
            TraceRecord alu;
            alu.op = OpClass::IntAlu;
            trace.push_back(alu);
        }
        TraceRecord rec;
        rec.op = ops[i].isWrite ? OpClass::Store : OpClass::Load;
        rec.addr = ops[i].addr;
        trace.push_back(rec);
    }
    OrgSpec spec;
    auto scalar = makeOrganization(GetParam(), spec);
    auto gathered = makeOrganization(GetParam(), spec);
    for (const Op &op : ops)
        scalar->access(op.addr, op.isWrite);
    runTraceMemory(*gathered, trace);
    expectStatsEqual(scalar->stats(), gathered->stats(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllOrganizations, BatchEquivalence,
    ::testing::ValuesIn(standardComparisonLabels()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

/** Non-LRU set-associative variants (no registry label). */
TEST(BatchEquivalenceVariants, MixedBatchMatchesScalarOnEveryPolicy)
{
    const std::vector<Op> ops = mixedStream();
    const CacheGeometry geometry(8 * 1024, 32, 2);
    for (IndexKind index : {IndexKind::Modulo, IndexKind::IPolySkew}) {
        for (ReplKind repl : {ReplKind::Lru, ReplKind::Fifo,
                              ReplKind::Random, ReplKind::Nru}) {
            for (WriteAllocate wa : {WriteAllocate::Yes, WriteAllocate::No}) {
                auto build = [&] {
                    return std::make_unique<SetAssocCache>(
                        geometry,
                        makeIndexFn(index, geometry.setBits(),
                                    geometry.ways()),
                        repl, wa);
                };
                auto scalar = build();
                auto mixed = build();
                const std::string label = indexKindName(index) + " repl "
                    + std::to_string(static_cast<int>(repl))
                    + (wa == WriteAllocate::Yes ? " wa" : " nwa");
                expectMixedMatchesScalar(*scalar, *mixed, ops, label);
            }
        }
    }
}

/** One drawn SetAssocCache configuration of the randomized oracle. */
struct CacheDraw
{
    unsigned ways = 1;
    unsigned setBits = 1;
    bool matrix = false; ///< MatrixIndex (RowMask plan) instead of kind
    IndexKind kind = IndexKind::Modulo;
    unsigned inputBits = 14;
    ReplKind repl = ReplKind::Lru;
    WriteAllocate writeAllocate = WriteAllocate::Yes;
    std::uint64_t seed = 0;

    std::string
    describe() const
    {
        static const char *const kRepl[] = {"lru", "fifo", "random", "nru"};
        // Only the I-Poly and matrix schemes read inputBits.
        const bool hashed = matrix || kind == IndexKind::IPoly
            || kind == IndexKind::IPolySkew;
        return "seed " + std::to_string(seed) + ": "
            + std::to_string(ways) + " ways x 2^" + std::to_string(setBits)
            + " sets, " + (matrix ? "matrix" : indexKindName(kind))
            + (hashed ? " over " + std::to_string(inputBits) + " bits"
                      : std::string())
            + ", " + kRepl[static_cast<int>(repl)]
            + (writeAllocate == WriteAllocate::Yes ? ", wa" : ", nwa");
    }

    std::unique_ptr<SetAssocCache>
    build() const
    {
        const CacheGeometry geometry(
            std::uint64_t{ways} << setBits << 5, 32, ways);
        std::unique_ptr<IndexFn> fn =
            matrix ? std::unique_ptr<IndexFn>(MatrixIndex::randomFullRank(
                         setBits, ways, inputBits, seed))
                   : makeIndexFn(kind, setBits, ways, inputBits);
        return std::make_unique<SetAssocCache>(
            geometry, std::move(fn), repl, writeAllocate);
    }
};

CacheDraw
drawCache(std::uint64_t seed)
{
    Rng rng(seed);
    CacheDraw d;
    d.seed = seed;
    d.ways = 1u << rng.nextBelow(4);
    d.setBits = 4 + static_cast<unsigned>(rng.nextBelow(7));
    const std::uint64_t scheme = rng.nextBelow(6);
    if (scheme == 5) {
        // More than 64 packed index bits: the row-mask plan.
        d.matrix = true;
        d.ways = 8;
        d.setBits = 9 + static_cast<unsigned>(rng.nextBelow(2));
    } else {
        d.kind = static_cast<IndexKind>(scheme);
    }
    // Skewed I-Poly needs one irreducible modulus per way.
    while (!d.matrix && d.kind == IndexKind::IPolySkew
           && PolyCatalog::countIrreducible(d.setBits) < d.ways)
        ++d.setBits;
    d.inputBits = d.setBits + static_cast<unsigned>(rng.nextBelow(12));
    d.repl = static_cast<ReplKind>(rng.nextBelow(4));
    d.writeAllocate = rng.chance(0.5) ? WriteAllocate::Yes
                                      : WriteAllocate::No;
    return d;
}

/**
 * A mixed load/store stream for @p d: reuse of recent blocks (hits),
 * same-set strides (conflicts) and uniform traffic over four times the
 * capacity (capacity misses and evictions).
 */
std::vector<Op>
drawStream(const CacheDraw &d, Rng &rng)
{
    const std::uint64_t capacity = std::uint64_t{d.ways} << d.setBits << 5;
    const std::uint64_t stride = std::uint64_t{32} << d.setBits;
    const double stores = 0.6 * static_cast<double>(rng.nextBelow(100))
        / 100.0;
    const std::size_t n = 3000 + rng.nextBelow(3000);
    std::vector<Op> ops;
    ops.reserve(n);
    while (ops.size() < n) {
        std::uint64_t addr;
        const std::uint64_t pick = rng.nextBelow(10);
        if (pick < 4 && !ops.empty()) {
            const std::size_t back =
                rng.nextBelow(std::min<std::size_t>(ops.size(), 64));
            addr = ops[ops.size() - 1 - back].addr;
        } else if (pick < 7) {
            addr = (1 << 22) + rng.nextBelow(4 * d.ways + 4) * stride;
        } else {
            addr = rng.nextBelow(4 * capacity);
        }
        ops.push_back({addr, rng.chance(stores)});
    }
    return ops;
}

/**
 * The randomized single-cache oracle: per seed, a drawn geometry,
 * placement (every IndexKind and a row-mask MatrixIndex), policy and
 * write-allocate setting, replayed three ways: an access() loop,
 * accessMixed() at random batch sizes, and accessMixed() on the same
 * cache built on the virtual index path. Stats and the
 * final contents must agree; a failure names the seed and the draw.
 */
TEST(BatchEquivalenceRandom, DrawnCachesMatchAcrossPaths)
{
    bool seen[4] = {}; // IndexPlan::Kind of the compiled caches
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
        const CacheDraw d = drawCache(seed);
        SCOPED_TRACE(d.describe());
        Rng rng(seed * 0x9E3779B97F4A7C15ull);
        const std::vector<Op> ops = drawStream(d, rng);

        auto scalar = d.build();
        auto batched = d.build();
        IndexPlan::forceCallbackForTests(true);
        auto virtual_path = d.build();
        IndexPlan::forceCallbackForTests(false);
        ASSERT_EQ(virtual_path->indexPlan().kind(),
                  IndexPlan::Kind::Callback);
        seen[static_cast<int>(batched->indexPlan().kind())] = true;
        if (d.matrix) {
            ASSERT_EQ(batched->indexPlan().kind(),
                      IndexPlan::Kind::RowMask);
        }

        for (const Op &op : ops)
            scalar->access(op.addr, op.isWrite);
        // Batches up to 600 cross the kernel's 256-address tiles.
        feedMixed(*batched, ops, rng, 600);
        feedMixed(*virtual_path, ops, rng, 600);

        expectStatsEqual(scalar->stats(), batched->stats(), "batch");
        expectStatsEqual(scalar->stats(), virtual_path->stats(), "virtual");
        for (const Op &op : ops) {
            const bool present = scalar->probe(op.addr);
            ASSERT_EQ(batched->probe(op.addr), present) << op.addr;
            ASSERT_EQ(virtual_path->probe(op.addr), present) << op.addr;
        }
        if (HasFailure())
            return;
    }
    EXPECT_TRUE(seen[static_cast<int>(IndexPlan::Kind::Modulo)]);
    EXPECT_TRUE(seen[static_cast<int>(IndexPlan::Kind::Packed)]);
    EXPECT_TRUE(seen[static_cast<int>(IndexPlan::Kind::RowMask)]);
}

/**
 * A decorator that overrides accessBatch() but not accessMixed(), like
 * an external timing wrapper: the base accessMixed() must split each
 * mixed batch into same-kind runs and forward them here.
 */
class BatchOnlyDecorator : public CacheModel
{
  public:
    explicit BatchOnlyDecorator(std::unique_ptr<CacheModel> inner)
        : CacheModel(inner->geometry()), inner_(std::move(inner))
    {}

    AccessResult
    access(std::uint64_t addr, bool is_write) override
    {
        const AccessResult r = inner_->access(addr, is_write);
        stats_ = inner_->stats();
        return r;
    }

    void
    accessBatch(const std::uint64_t *addrs, std::size_t n,
                bool is_write) override
    {
        ++calls;
        accesses += n;
        // Every forwarded run is one kind: check it against the stream.
        for (std::size_t i = 0; i < n; ++i) {
            if (expected && expected[seen + i] != is_write)
                ++kindMismatches;
        }
        seen += n;
        inner_->accessBatch(addrs, n, is_write);
        stats_ = inner_->stats();
    }

    bool probe(std::uint64_t addr) const override
    {
        return inner_->probe(addr);
    }
    bool invalidate(std::uint64_t addr) override
    {
        return inner_->invalidate(addr);
    }
    void flush() override { inner_->flush(); }
    std::string name() const override { return inner_->name(); }

    const bool *expected = nullptr; ///< the stream's per-access kinds
    std::size_t seen = 0;
    std::size_t calls = 0;
    std::size_t accesses = 0;
    std::size_t kindMismatches = 0;

  private:
    std::unique_ptr<CacheModel> inner_;
};

TEST(BatchEquivalenceDecorator, BatchOnlyOverrideGetsSplitRuns)
{
    const std::vector<Op> ops = mixedStream();
    std::unique_ptr<bool[]> kinds(new bool[ops.size()]);
    std::size_t runs = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        kinds[i] = ops[i].isWrite;
        if (i == 0 || ops[i].isWrite != ops[i - 1].isWrite)
            ++runs;
    }
    for (const std::string &label : standardComparisonLabels()) {
        OrgSpec spec;
        auto scalar = makeOrganization(label, spec);
        BatchOnlyDecorator decorated(makeOrganization(label, spec));
        decorated.expected = kinds.get();
        expectMixedMatchesScalar(*scalar, decorated, ops, label);
        EXPECT_EQ(decorated.accesses, ops.size()) << label;
        EXPECT_EQ(decorated.kindMismatches, 0u) << label;
        // Batch boundaries can only add cuts to the same-kind runs.
        EXPECT_GE(decorated.calls, runs) << label;
    }
}

} // anonymous namespace
} // namespace cac
