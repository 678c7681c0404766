/**
 * @file
 * Equivalence of the batched access fast paths with the scalar path:
 * for every registered organization, accessBatch() over same-kind runs
 * and accessMixed() over mixed load/store batches must leave the cache
 * with CacheStats bit-identical to an access()-per-address loop over
 * the same stream — including the write-back and non-LRU variants, and
 * a decorator that only overrides accessBatch() (the base
 * accessMixed() fallback).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/set_assoc.hh"
#include "common/rng.hh"
#include "core/experiment.hh"
#include "core/registry.hh"
#include "index/factory.hh"

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
    // ...and random traffic exercises eviction/writeback paths.
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
 * Drive @p cache with accessMixed() batches of every size from 1 to
 * MemRunGatherer::kMaxRun-ish, so tile boundaries and batch tails land
 * at varied stream positions.
 */
void
feedMixed(CacheModel &cache, const std::vector<Op> &ops)
{
    std::vector<std::uint64_t> addrs;
    std::unique_ptr<bool[]> writes(new bool[ops.size()]);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        addrs.push_back(ops[i].addr);
        writes[i] = ops[i].isWrite;
    }
    Rng sizes(7);
    std::size_t at = 0;
    while (at < ops.size()) {
        const std::size_t n = std::min<std::size_t>(
            1 + sizes.nextBelow(MemRunGatherer::kMaxRun), ops.size() - at);
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
    feedMixed(mixed, ops);
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

/** Write-back and non-LRU set-associative variants (no registry label). */
TEST(BatchEquivalenceVariants, MixedBatchMatchesScalarOnEveryPolicy)
{
    const std::vector<Op> ops = mixedStream();
    const CacheGeometry geometry(8 * 1024, 32, 2);
    for (IndexKind index : {IndexKind::Modulo, IndexKind::IPolySkew}) {
        for (ReplKind repl : {ReplKind::Lru, ReplKind::Fifo,
                              ReplKind::Random, ReplKind::Nru,
                              ReplKind::TreePlru}) {
            // Tree PLRU keeps per-set bits: non-skewed placement only.
            if (repl == ReplKind::TreePlru && index == IndexKind::IPolySkew)
                continue;
            for (bool write_back : {false, true}) {
                for (WriteAllocate wa :
                     {WriteAllocate::Yes, WriteAllocate::No}) {
                    auto build = [&] {
                        return std::make_unique<SetAssocCache>(
                            geometry,
                            makeIndexFn(index, geometry.setBits(),
                                        geometry.ways()),
                            makeReplacementPolicy(repl,
                                                  geometry.numSets(),
                                                  geometry.ways()),
                            wa, write_back);
                    };
                    auto scalar = build();
                    auto mixed = build();
                    const std::string label =
                        indexKindName(index) + " repl "
                        + std::to_string(static_cast<int>(repl))
                        + (write_back ? " wb" : " wt")
                        + (wa == WriteAllocate::Yes ? " wa" : " nwa");
                    expectMixedMatchesScalar(*scalar, *mixed, ops, label);
                    if (write_back)
                        EXPECT_GT(mixed->stats().writebacks, 0u) << label;
                }
            }
        }
    }
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
