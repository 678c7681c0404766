/**
 * @file
 * Tests for the SweepRunner simulation engine: grid ordering, thread
 * determinism, agreement with the serial experiment drivers, and the
 * row-replay oracle — a streamed grid, whose rows share one reader per
 * target group, equals the loaded grid cell for cell at any thread
 * count, with per-cell quarantine inside a row.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/experiment.hh"
#include "core/registry.hh"
#include "core/sweep.hh"
#include "obs/obs.hh"
#include "trace/builder.hh"
#include "trace/io.hh"
#include "workloads/spec_proxy.hh"
#include "workloads/stride.hh"

namespace cac
{
namespace
{

std::vector<std::uint64_t>
strideAddrs(std::uint64_t stride)
{
    StrideWorkloadConfig wc;
    wc.stride = stride;
    wc.sweeps = 16;
    return makeStrideAddressTrace(wc);
}

Trace
smallTrace()
{
    Trace t;
    TraceBuilder b(t);
    for (int i = 0; i < 2000; ++i) {
        b.load(0x4000 + (i % 512) * 32, reg::r(1));
        b.store(0x9000 + (i % 64) * 32, reg::r(1));
    }
    return t;
}

/** The 4-org x 3-workload grid the determinism test runs. */
SweepRunner
makeGrid(unsigned threads)
{
    SweepRunner sweep(threads);
    sweep.addOrgs({"a2", "a2-Hp-Sk", "victim"});
    sweep.addOrg("custom-full", [] {
        OrgSpec spec;
        return makeOrganization("full", spec);
    });
    sweep.addAddressWorkload("stride-1", strideAddrs(1));
    sweep.addAddressWorkload("stride-512",
                             [] { return strideAddrs(512); });
    sweep.addTraceWorkload("mixed-trace", smallTrace());
    return sweep;
}

void
expectCellsEqual(const std::vector<SweepCell> &a,
                 const std::vector<SweepCell> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].workload, b[i].workload) << i;
        EXPECT_EQ(a[i].org, b[i].org) << i;
        EXPECT_EQ(a[i].cacheName, b[i].cacheName) << i;
        EXPECT_EQ(a[i].stats.loads, b[i].stats.loads) << i;
        EXPECT_EQ(a[i].stats.stores, b[i].stats.stores) << i;
        EXPECT_EQ(a[i].stats.loadMisses, b[i].stats.loadMisses) << i;
        EXPECT_EQ(a[i].stats.storeMisses, b[i].stats.storeMisses) << i;
        EXPECT_EQ(a[i].stats.fills, b[i].stats.fills) << i;
        EXPECT_EQ(a[i].stats.evictions, b[i].stats.evictions) << i;
    }
}

TEST(SweepRunner, GridIsWorkloadMajorInInsertionOrder)
{
    SweepRunner sweep = makeGrid(1);
    ASSERT_EQ(sweep.numCells(), 12u);
    const auto cells = sweep.run();
    ASSERT_EQ(cells.size(), 12u);

    const std::vector<std::string> orgs = {"a2", "a2-Hp-Sk", "victim",
                                           "custom-full"};
    const std::vector<std::string> workloads = {"stride-1", "stride-512",
                                                "mixed-trace"};
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        for (std::size_t o = 0; o < orgs.size(); ++o) {
            const SweepCell &cell = cells[w * orgs.size() + o];
            EXPECT_EQ(cell.workload, workloads[w]);
            EXPECT_EQ(cell.org, orgs[o]);
        }
    }
}

TEST(SweepRunner, ThreadCountDoesNotChangeResults)
{
    const auto serial = makeGrid(1).run();
    const auto threaded = makeGrid(4).run();
    expectCellsEqual(serial, threaded);

    // Oversubscribed relative to the 12 cells: still identical.
    const auto oversubscribed = makeGrid(64).run();
    expectCellsEqual(serial, oversubscribed);
}

TEST(SweepRunner, CellsMatchTheSerialDrivers)
{
    const auto cells = makeGrid(4).run();

    // stride-512 x a2 (cell [1][0]) against runAddressStream.
    {
        OrgSpec spec;
        auto cache = makeOrganization("a2", spec);
        const CacheStats want =
            runAddressStream(*cache, strideAddrs(512));
        EXPECT_EQ(cells[4].stats.loads, want.loads);
        EXPECT_EQ(cells[4].stats.loadMisses, want.loadMisses);
    }
    // mixed-trace x victim (cell [2][2]) against runTraceMemory.
    {
        OrgSpec spec;
        auto cache = makeOrganization("victim", spec);
        const Trace t = smallTrace();
        const CacheStats want = runTraceMemory(*cache, t);
        EXPECT_EQ(cells[10].stats.loads, want.loads);
        EXPECT_EQ(cells[10].stats.stores, want.stores);
        EXPECT_EQ(cells[10].stats.loadMisses, want.loadMisses);
        EXPECT_EQ(cells[10].stats.storeMisses, want.storeMisses);
    }
}

TEST(SweepRunner, SpecIsCapturedAtAddTime)
{
    SweepRunner sweep(2);
    OrgSpec small;
    small.sizeBytes = 4 * 1024;
    sweep.setSpec(small);
    sweep.addOrg("a2");
    OrgSpec big;
    big.sizeBytes = 16 * 1024;
    sweep.setSpec(big);
    sweep.addOrg("a4");
    sweep.addAddressWorkload("stride-1", strideAddrs(1));

    const auto cells = sweep.run();
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_NE(cells[0].cacheName.find("4KB"), std::string::npos)
        << cells[0].cacheName;
    EXPECT_NE(cells[1].cacheName.find("16KB"), std::string::npos)
        << cells[1].cacheName;
}

TEST(SweepRunner, EmptyGridRunsToNothing)
{
    SweepRunner sweep(4);
    sweep.addOrg("a2");
    EXPECT_EQ(sweep.numCells(), 0u);
    EXPECT_TRUE(sweep.run().empty());
}

TEST(SweepRunner, CsvHasHeaderAndOneLinePerCell)
{
    const auto cells = makeGrid(2).run();
    const std::string csv = sweepCsv(cells);
    std::size_t lines = 0;
    for (char c : csv) {
        if (c == '\n')
            ++lines;
    }
    EXPECT_EQ(lines, cells.size() + 1);
    EXPECT_EQ(csv.rfind("workload,organization,cache,loads,", 0), 0u);
}

TEST(SweepRunnerDeath, UnknownRegistryLabelIsFatal)
{
    SweepRunner sweep(1);
    EXPECT_EXIT(sweep.addOrg("wombat"),
                ::testing::ExitedWithCode(1), "unknown");
}

/** Extended-target grid: cache, hierarchy and CPU rows side by side. */
SweepRunner
makeTargetGrid(unsigned threads)
{
    SweepRunner sweep(threads);
    sweep.addTarget("a2-Hp-Sk");
    sweep.addTarget("2lvl:a2-Hp-Sk/a4");
    sweep.addTarget("cpu:8k-conv");
    sweep.addAddressWorkload("stride-512", strideAddrs(512));
    sweep.addTraceWorkload("mixed-trace", smallTrace());
    return sweep;
}

TEST(SweepRunnerTargets, MixedTargetKindsProduceTheRightSections)
{
    const auto cells = makeTargetGrid(2).run();
    ASSERT_EQ(cells.size(), 6u);

    for (std::size_t w = 0; w < 2; ++w) {
        const SweepCell &cache = cells[w * 3 + 0];
        const SweepCell &hier = cells[w * 3 + 1];
        const SweepCell &cpu = cells[w * 3 + 2];

        EXPECT_EQ(cache.target.kind, TargetKind::Cache);
        EXPECT_FALSE(cache.target.hasHierarchy);
        EXPECT_FALSE(cache.target.hasCpu);
        EXPECT_GT(cache.stats.loads, 0u);

        EXPECT_EQ(hier.target.kind, TargetKind::Hierarchy);
        EXPECT_TRUE(hier.target.hasHierarchy);
        EXPECT_GT(hier.target.l2.accesses(), 0u);

        EXPECT_EQ(cpu.target.kind, TargetKind::Cpu);
        EXPECT_TRUE(cpu.target.hasCpu);
        EXPECT_GT(cpu.target.cpu.cycles, 0u);
        EXPECT_GT(cpu.target.cpu.ipc(), 0.0);

        // The compat stats field mirrors the target's L1 section.
        EXPECT_EQ(cpu.stats.loads, cpu.target.l1.loads);
    }
}

TEST(SweepRunnerTargets, TargetGridIsThreadCountInvariant)
{
    const auto serial = makeTargetGrid(1).run();
    const auto threaded = makeTargetGrid(8).run();
    expectCellsEqual(serial, threaded);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].target.cpu.cycles,
                  threaded[i].target.cpu.cycles) << i;
        EXPECT_EQ(serial[i].target.holes.holesCreated,
                  threaded[i].target.holes.holesCreated) << i;
    }
}

TEST(SweepRunnerTargets, StreamedWorkloadMatchesLoadedWorkload)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "cac_sweep_stream.trc")
            .string();
    writeTrace(smallTrace(), path);

    auto makeSweep = [&](bool streamed) {
        SweepRunner sweep(2);
        sweep.addTarget("a2-Hp-Sk");
        sweep.addTarget("2lvl:a2/a4");
        sweep.addTarget("cpu:8k-conv");
        if (streamed)
            sweep.addTraceFileWorkload("t", path, 123);
        else
            sweep.addTraceWorkload("t", readTrace(path));
        return sweep;
    };

    const auto loaded = makeSweep(false).run();
    const auto streamed = makeSweep(true).run();
    expectCellsEqual(loaded, streamed);
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        EXPECT_EQ(loaded[i].target.cpu.cycles,
                  streamed[i].target.cpu.cycles) << i;
    }
    std::remove(path.c_str());
}

// ---- row replay ------------------------------------------------------

/**
 * Every registry organization plus a hierarchy, a multicore system and
 * a CPU: the target kinds a streamed row can mix.
 */
std::vector<std::string>
oracleTargets()
{
    std::vector<std::string> labels =
        OrgRegistry::global().exampleLabels();
    for (const std::string &label : standardComparisonLabels()) {
        if (std::find(labels.begin(), labels.end(), label) == labels.end())
            labels.push_back(label);
    }
    labels.push_back("2lvl:a2/a4");
    labels.push_back("mc:2xa2-Hp-Sk/a4");
    labels.push_back("cpu:8k-conv");
    return labels;
}

/** A cache target that throws once it has been fed @p limit records. */
class PoisonedTarget : public SimTarget
{
  public:
    explicit PoisonedTarget(std::uint64_t limit)
        : inner_(OrgRegistry::global().buildTarget("a2", TargetSpec{})),
          limit_(limit)
    {}

    std::string name() const override { return "poisoned"; }
    TargetKind kind() const override { return inner_->kind(); }

    void
    accessBatch(const std::uint64_t *addrs, std::size_t n,
                bool is_write) override
    {
        inner_->accessBatch(addrs, n, is_write);
    }

    void
    replay(const TraceRecord *recs, std::size_t n) override
    {
        fed_ += n;
        if (fed_ > limit_)
            throw std::runtime_error("poisoned replay");
        inner_->replay(recs, n);
    }

    void finish() override { inner_->finish(); }
    TargetStats stats() const override { return inner_->stats(); }

  private:
    std::unique_ptr<SimTarget> inner_;
    std::uint64_t limit_;
    std::uint64_t fed_ = 0;
};

/** Position of the poisoned target inside the oracle rows. */
constexpr std::size_t kPoisonAt = 5;

/** Proxy traces for the oracle rows, written once as CACTRC02 files. */
struct OracleTraces
{
    std::vector<std::string> names = {"swim", "tomcatv", "gcc"};
    std::vector<Trace> traces;
    std::vector<std::string> paths;

    OracleTraces()
    {
        for (const std::string &name : names) {
            traces.push_back(buildSpecProxy(name, 6000));
            paths.push_back((std::filesystem::temp_directory_path()
                             / ("cac_sweep_row_" + name + ".trc"))
                                .string());
            writeTrace(traces.back(), paths.back());
        }
    }

    ~OracleTraces()
    {
        for (const std::string &path : paths)
            std::remove(path.c_str());
    }
};

/**
 * The oracle grid over the first @p rows traces: streamed (97-record
 * chunks, so chunk boundaries fall mid-run) or loaded in memory.
 */
SweepRunner
makeOracleGrid(const OracleTraces &in, std::size_t rows, bool streamed,
               unsigned threads)
{
    SweepRunner sweep(threads);
    const std::vector<std::string> labels = oracleTargets();
    for (std::size_t t = 0; t < labels.size(); ++t) {
        if (t == kPoisonAt) {
            sweep.addTarget("poisoned", [] {
                return std::make_unique<PoisonedTarget>(3000);
            });
        }
        sweep.addTarget(labels[t]);
    }
    for (std::size_t r = 0; r < rows; ++r) {
        if (streamed)
            sweep.addTraceFileWorkload(in.names[r], in.paths[r], 97);
        else
            sweep.addTraceWorkload(in.names[r], in.traces[r]);
    }
    return sweep;
}

/** Every counter a cell reports, hierarchy, CPU and multicore included. */
void
expectCellsIdentical(const std::vector<SweepCell> &want,
                     const std::vector<SweepCell> &got,
                     const std::string &label)
{
    expectCellsEqual(want, got);
    for (std::size_t i = 0; i < want.size(); ++i) {
        const TargetStats &a = want[i].target;
        const TargetStats &b = got[i].target;
        const std::string where = label + " cell " + std::to_string(i);
        EXPECT_EQ(want[i].failed, got[i].failed) << where;
        EXPECT_EQ(want[i].error.code, got[i].error.code) << where;
        EXPECT_EQ(a.kind, b.kind) << where;
        EXPECT_EQ(a.l1.writebacks, b.l1.writebacks) << where;
        EXPECT_EQ(a.l1.firstProbeHits, b.l1.firstProbeHits) << where;
        EXPECT_EQ(a.l1.secondProbeHits, b.l1.secondProbeHits) << where;
        EXPECT_EQ(a.l2.accesses(), b.l2.accesses()) << where;
        EXPECT_EQ(a.l2.misses(), b.l2.misses()) << where;
        EXPECT_EQ(a.holes.holesCreated, b.holes.holesCreated) << where;
        EXPECT_EQ(a.holes.inclusionInvalidates,
                  b.holes.inclusionInvalidates)
            << where;
        EXPECT_EQ(a.cpu.cycles, b.cpu.cycles) << where;
        EXPECT_EQ(a.cpu.instructions, b.cpu.instructions) << where;
        EXPECT_EQ(a.mc.totalL2EvictionsByOthers(),
                  b.mc.totalL2EvictionsByOthers())
            << where;
        EXPECT_EQ(want[i].read.droppedRecords, got[i].read.droppedRecords)
            << where;
    }
}

TEST(SweepRunnerRows, StreamedGridEqualsLoadedGridAtAnyThreadCount)
{
    const OracleTraces in;
    for (std::size_t rows : {std::size_t{1}, std::size_t{3}}) {
        const std::vector<SweepCell> loaded =
            makeOracleGrid(in, rows, false, 1).run();
        // 1 thread: one group per row; 2 and 4: several targets per
        // group (and several groups per row); 16: one target per group.
        for (unsigned threads : {1u, 2u, 4u, 16u}) {
            const std::string label = std::to_string(rows) + " rows, "
                + std::to_string(threads) + " threads";
            const std::vector<SweepCell> streamed =
                makeOracleGrid(in, rows, true, threads).run();
            expectCellsIdentical(loaded, streamed, label);

            const std::size_t orgs = oracleTargets().size() + 1;
            ASSERT_EQ(streamed.size(), rows * orgs) << label;
            for (std::size_t i = 0; i < streamed.size(); ++i) {
                const SweepCell &cell = streamed[i];
                if (i % orgs == kPoisonAt) {
                    // Only the poisoned cell fails...
                    EXPECT_TRUE(cell.failed) << label;
                    EXPECT_EQ(cell.error.code, ErrorCode::WorkerFailed)
                        << label;
                    EXPECT_NE(cell.error.message().find("poisoned"),
                              std::string::npos)
                        << cell.error.message();
                    EXPECT_EQ(cell.stats.loads, 0u) << label;
                } else {
                    // ...its row siblings finish with exact stats.
                    EXPECT_FALSE(cell.failed)
                        << label << " " << cell.org << ": "
                        << cell.error.message();
                    EXPECT_GT(cell.stats.loads, 0u)
                        << label << " " << cell.org;
                }
            }
        }
    }
}

TEST(SweepRunnerRows, SharedReaderDamageReachesEveryCellOfTheRow)
{
    // A CRC-valid record with an invalid opcode: strict fails every
    // cell of the row with BadRecord, skip degrades every cell by
    // exactly that record — as each cell's private reader would.
    const std::string path =
        (std::filesystem::temp_directory_path() / "cac_sweep_badrec.trc")
            .string();
    Trace trace = buildSpecProxy("swim", 3000);
    trace[1234].op = static_cast<OpClass>(0x7F);
    writeTrace(trace, path);
    const std::vector<std::string> labels = {"a2", "a2-Hp-Sk",
                                             "2lvl:a2/a4", "cpu:8k-conv"};

    SweepRunner strict(1);
    strict.addOrgs(labels);
    strict.addTraceFileWorkload("bad", path, 100);
    for (const SweepCell &cell : strict.run()) {
        EXPECT_TRUE(cell.failed) << cell.org;
        EXPECT_EQ(cell.error.code, ErrorCode::BadRecord) << cell.org;
        EXPECT_EQ(cell.error.chunkIndex, 1234u / 4096u) << cell.org;
    }

    SweepRunner skip(1);
    skip.addOrgs(labels);
    TraceReaderOptions options;
    options.policy = ReadPolicy::Skip;
    skip.setReadOptions(options);
    skip.addTraceFileWorkload("bad", path, 100);
    SweepRunner clean(1);
    clean.addOrgs(labels);
    Trace dropped = trace;
    dropped.erase(dropped.begin() + 1234);
    clean.addTraceWorkload("bad", dropped);
    const std::vector<SweepCell> degraded = skip.run();
    expectCellsEqual(clean.run(), degraded);
    for (const SweepCell &cell : degraded) {
        EXPECT_FALSE(cell.failed) << cell.org;
        EXPECT_EQ(cell.read.droppedRecords, 1u) << cell.org;
    }
    std::remove(path.c_str());
}

TEST(SweepRunnerRows, RowCellSpansNestOnTheWorkerThread)
{
    const OracleTraces in;
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.enable();
    makeOracleGrid(in, 3, true, 1).run();
    tracer.disable();
    const std::vector<obs::TraceEvent> events = tracer.drain();
    tracer.clear();

    std::vector<obs::TraceEvent> cells;
    std::size_t waits = 0;
    for (const obs::TraceEvent &e : events) {
        if (std::string(e.name) == "sweep.cell")
            cells.push_back(e);
        else if (std::string(e.name) == "sweep.queue_wait")
            ++waits;
    }
    const std::size_t orgs = oracleTargets().size() + 1;
    ASSERT_EQ(cells.size(), 3 * orgs);
    EXPECT_EQ(waits, 3u); // one task per row at one thread
    // Every pair of spans on one thread is disjoint or nested.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        for (std::size_t j = i + 1; j < cells.size(); ++j) {
            const obs::TraceEvent &a = cells[i];
            const obs::TraceEvent &b = cells[j];
            if (a.tid != b.tid)
                continue;
            const bool disjoint =
                a.endUs <= b.startUs || b.endUs <= a.startUs;
            const bool nested =
                (a.startUs <= b.startUs && b.endUs <= a.endUs)
                || (b.startUs <= a.startUs && a.endUs <= b.endUs);
            EXPECT_TRUE(disjoint || nested) << a.detail << " / " << b.detail;
        }
    }
    // A row's cells run together: its first cell's span contains all
    // of the row's others.
    for (std::size_t r = 0; r < 3; ++r) {
        const obs::TraceEvent *outer = nullptr;
        for (const obs::TraceEvent &e : cells) {
            if (e.detail.rfind(in.names[r] + " x ", 0) == 0
                && (outer == nullptr || e.startUs < outer->startUs
                    || (e.startUs == outer->startUs
                        && e.endUs > outer->endUs))) {
                outer = &e;
            }
        }
        ASSERT_NE(outer, nullptr);
        for (const obs::TraceEvent &e : cells) {
            if (e.detail.rfind(in.names[r] + " x ", 0) == 0) {
                EXPECT_LE(outer->startUs, e.startUs) << e.detail;
                EXPECT_GE(outer->endUs, e.endUs) << e.detail;
            }
        }
    }
}

TEST(SweepRunnerDeath, MissingStreamedTraceFailsAtAddTime)
{
    SweepRunner sweep(1);
    EXPECT_EXIT(sweep.addTraceFileWorkload("t", "/nonexistent/x.trc"),
                ::testing::ExitedWithCode(1), "cannot open");
}

} // anonymous namespace
} // namespace cac
