/**
 * @file
 * Graceful-degradation tests for the parallel engine: a poisoned sweep
 * cell is quarantined while the rest of the grid completes, degraded
 * reads surface in the CSV, blown per-cell deadlines cancel with a
 * Timeout error (mid-replay, scenario cells included), sharded replay
 * falls back to a monolithic pass when a shard dies, and parallelFor
 * contains worker exceptions.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "core/registry.hh"
#include "core/shard_replay.hh"
#include "core/sim_target.hh"
#include "core/sweep.hh"
#include "scenario/scenario.hh"
#include "trace/io.hh"
#include "workloads/spec_proxy.hh"

namespace cac
{
namespace
{

std::string
tmpPath(const char *name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

/** XOR one bit into the file at @p offset. */
void
flipBit(const std::string &path, long offset, int mask)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    const int byte = std::fgetc(f);
    ASSERT_NE(byte, EOF);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    std::fputc(byte ^ mask, f);
    std::fclose(f);
}

/** Byte offset of CACTRC02 chunk @p seq with @p c records per chunk. */
long
chunkOffset(std::uint64_t seq, std::uint64_t c)
{
    return static_cast<long>(24 + seq * (20 + c * 24));
}

/** Write a proxy trace and corrupt one payload bit in chunk 2. */
std::string
corruptTracePath(const char *name)
{
    const std::string path = tmpPath(name);
    writeTrace(buildSpecProxy("swim", 2000), path, TraceFormat::V2,
               100);
    flipBit(path, chunkOffset(2, 100) + 20 + 11, 0x20);
    return path;
}

// ---- sweep quarantine ------------------------------------------------

TEST(Resilience, PoisonedCellDoesNotTakeDownTheGrid)
{
    const std::string bad = corruptTracePath("cac_res_poison.trc");

    SweepRunner sweep(2);
    sweep.addOrgs({"a2", "victim"});
    sweep.addTraceFileWorkload("bad", bad, 100);
    sweep.addTraceWorkload("good", buildSpecProxy("swim", 2000));

    const std::vector<SweepCell> cells = sweep.run();
    ASSERT_EQ(cells.size(), 4u);
    for (const SweepCell &cell : cells) {
        if (cell.workload == "bad") {
            EXPECT_TRUE(cell.failed) << cell.org;
            EXPECT_EQ(cell.error.code, ErrorCode::ChecksumMismatch)
                << cell.org;
            EXPECT_EQ(cell.stats.loads, 0u) << cell.org;
        } else {
            EXPECT_FALSE(cell.failed) << cell.org;
            EXPECT_TRUE(cell.error.ok()) << cell.org;
            EXPECT_GT(cell.stats.loads, 0u) << cell.org;
        }
    }
    std::remove(bad.c_str());
}

TEST(Resilience, SkipPolicyCompletesTheCellWithExactDrops)
{
    const std::string bad = corruptTracePath("cac_res_skip.trc");

    SweepRunner sweep(1);
    sweep.addOrg("a2");
    TraceReaderOptions skip;
    skip.policy = ReadPolicy::Skip;
    sweep.setReadOptions(skip);
    sweep.addTraceFileWorkload("bad", bad, 100);

    const std::vector<SweepCell> cells = sweep.run();
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_FALSE(cells[0].failed);
    EXPECT_EQ(cells[0].read.droppedRecords, 100u);
    EXPECT_EQ(cells[0].read.crcErrors, 1u);
    EXPECT_GT(cells[0].stats.loads, 0u);
    std::remove(bad.c_str());
}

TEST(Resilience, SweepCsvSurfacesDegradationOnlyWhenPresent)
{
    // Healthy sweep: the historical column set, byte for byte.
    SweepRunner healthy(1);
    healthy.addOrg("a2");
    healthy.addTraceWorkload("good", buildSpecProxy("swim", 1000));
    const std::string healthy_csv = sweepCsv(healthy.run());
    EXPECT_EQ(healthy_csv.find("dropped_records"), std::string::npos)
        << healthy_csv;
    EXPECT_EQ(healthy_csv.find("status"), std::string::npos)
        << healthy_csv;

    // Degraded sweep: dropped_records + status columns appear on
    // every row.
    const std::string bad = corruptTracePath("cac_res_csv.trc");
    SweepRunner degraded(1);
    degraded.addOrg("a2");
    TraceReaderOptions skip;
    skip.policy = ReadPolicy::Skip;
    degraded.setReadOptions(skip);
    degraded.addTraceFileWorkload("bad", bad, 100);
    degraded.addTraceWorkload("good", buildSpecProxy("swim", 1000));
    const std::string csv = sweepCsv(degraded.run());
    EXPECT_NE(csv.find("dropped_records,status"), std::string::npos)
        << csv;
    EXPECT_NE(csv.find(",degraded"), std::string::npos) << csv;
    EXPECT_NE(csv.find(",100,"), std::string::npos) << csv;
    EXPECT_NE(csv.find(",ok"), std::string::npos) << csv;

    // Failed cells are labelled as such.
    SweepRunner failing(1);
    failing.addOrg("a2");
    failing.addTraceFileWorkload("bad", bad, 100); // strict default
    const std::string failed_csv = sweepCsv(failing.run());
    EXPECT_NE(failed_csv.find(",failed"), std::string::npos)
        << failed_csv;
    std::remove(bad.c_str());
}

TEST(Resilience, BlownCellDeadlineCancelsWithTimeout)
{
    const std::string path = tmpPath("cac_res_deadline.trc");
    writeTrace(buildSpecProxy("swim", 20000), path, TraceFormat::V2,
               100);

    // ~2 ms of injected latency per raw read makes the 200-chunk
    // replay blow a 5 ms budget after a handful of chunks.
    TraceReaderOptions slow;
    slow.chunkRecords = 100;
    FaultInjector::Spec spec;
    spec.latencyUs = 2000;
    slow.inject = spec;

    SweepRunner sweep(1);
    sweep.addOrg("a2");
    sweep.setCellDeadline(5);
    sweep.addTraceFileWorkload("slow", path, slow);

    const std::vector<SweepCell> cells = sweep.run();
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_TRUE(cells[0].failed);
    EXPECT_EQ(cells[0].error.code, ErrorCode::Timeout);
    EXPECT_NE(cells[0].error.message().find("deadline"),
              std::string::npos)
        << cells[0].error.message();
    std::remove(path.c_str());
}

/** Counts the records it is fed; each call costs 2 ms of wall time. */
class SlowCountingTarget : public SimTarget
{
  public:
    explicit SlowCountingTarget(std::shared_ptr<std::atomic<std::size_t>> fed)
        : fed_(std::move(fed))
    {
    }

    std::string name() const override { return "slow-counter"; }
    TargetKind kind() const override { return TargetKind::Cache; }
    void accessBatch(const std::uint64_t *, std::size_t, bool) override {}

    void
    replay(const TraceRecord *, std::size_t n) override
    {
        *fed_ += n;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    TargetStats
    stats() const override
    {
        TargetStats s;
        s.kind = TargetKind::Cache;
        return s;
    }

  private:
    std::shared_ptr<std::atomic<std::size_t>> fed_;
};

TEST(Resilience, BlownDeadlineCancelsAScenarioCellMidReplay)
{
    // One 400k-record program: a single segment, so only a check
    // inside the replay, at a chunk boundary, can stop it early.
    const auto scenario = buildScenario("mix:swim@n=400k");
    auto fed = std::make_shared<std::atomic<std::size_t>>(0);
    SweepRunner sweep(1);
    sweep.addTarget("slow", [fed] {
        return std::make_unique<SlowCountingTarget>(fed);
    });
    sweep.setCellDeadline(1);
    sweep.addScenarioWorkload(scenario->name(), scenario);

    const std::vector<SweepCell> cells = sweep.run();
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_TRUE(cells[0].failed);
    EXPECT_EQ(cells[0].error.code, ErrorCode::Timeout);
    EXPECT_GT(fed->load(), 0u);
    EXPECT_LT(fed->load(), scenario->composed().size());
}

TEST(Resilience, DeadlineDoesNotPerturbHealthyCells)
{
    // The same grid with and without a generous deadline produces
    // identical stats (deadline slicing must not change replay). The
    // scenario's 100k-record quanta are longer than a deadline slice.
    const char *const mix = "mix:swim+tomcatv@q=100k,n=150k";
    SweepRunner plain(1);
    plain.addOrgs({"a2", "a2-Hp-Sk"});
    plain.addTraceWorkload("t", buildSpecProxy("swim", 5000));
    plain.addScenarioWorkload(mix);
    const std::vector<SweepCell> want = plain.run();

    SweepRunner guarded(1);
    guarded.addOrgs({"a2", "a2-Hp-Sk"});
    guarded.addTraceWorkload("t", buildSpecProxy("swim", 5000));
    guarded.addScenarioWorkload(mix);
    guarded.setCellDeadline(60000);
    const std::vector<SweepCell> got = guarded.run();

    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_FALSE(got[i].failed);
        EXPECT_EQ(got[i].stats.loads, want[i].stats.loads) << i;
        EXPECT_EQ(got[i].stats.loadMisses, want[i].stats.loadMisses)
            << i;
        EXPECT_EQ(got[i].stats.evictions, want[i].stats.evictions)
            << i;
        ASSERT_EQ(got[i].programs.size(), want[i].programs.size()) << i;
        for (std::size_t p = 0; p < want[i].programs.size(); ++p) {
            EXPECT_EQ(got[i].programs[p].records,
                      want[i].programs[p].records);
            EXPECT_EQ(got[i].programs[p].l1.loadMisses,
                      want[i].programs[p].l1.loadMisses);
        }
    }
}

// ---- sharded replay fallback -----------------------------------------

TEST(Resilience, ShardFailureFallsBackToMonolithicReplay)
{
    const std::string bad = corruptTracePath("cac_res_shard.trc");
    const TargetSpec spec;
    TargetFactory factory = [&spec] {
        return OrgRegistry::global().buildTarget("a2", spec);
    };

    // The caller asks for Skip; shards read strictly, so the damaged
    // slice poisons its shard and the engine falls back to one
    // monolithic Skip replay.
    ShardOptions opts;
    opts.shards = 4;
    opts.threads = 2;
    opts.read.policy = ReadPolicy::Skip;
    const ShardedReplayResult result =
        shardedReplayFile(factory, bad, opts);

    EXPECT_TRUE(result.fellBack);
    EXPECT_FALSE(result.note.empty());
    EXPECT_TRUE(result.error.ok()) << result.error.message();
    EXPECT_EQ(result.read.droppedRecords, 100u);

    // The fallback result equals a direct monolithic Skip replay.
    auto target = OrgRegistry::global().buildTarget("a2", spec);
    TraceReaderOptions skip;
    skip.policy = ReadPolicy::Skip;
    TraceReader reader(bad, skip);
    ASSERT_TRUE(tryReplayAll(reader, *target));
    target->finish();
    EXPECT_EQ(result.stats.l1.loads, target->stats().l1.loads);
    EXPECT_EQ(result.stats.l1.loadMisses,
              target->stats().l1.loadMisses);
    EXPECT_FALSE(result.complete()); // degraded, and says so
    std::remove(bad.c_str());
}

TEST(Resilience, ShardedReplayOfHealthyFileIsComplete)
{
    const std::string path = tmpPath("cac_res_shard_ok.trc");
    writeTrace(buildSpecProxy("swim", 4000), path, TraceFormat::V2,
               100);
    const TargetSpec spec;
    TargetFactory factory = [&spec] {
        return OrgRegistry::global().buildTarget("a2", spec);
    };
    ShardOptions opts;
    opts.shards = 4;
    opts.threads = 2;
    const ShardedReplayResult result =
        shardedReplayFile(factory, path, opts);
    EXPECT_FALSE(result.fellBack);
    EXPECT_TRUE(result.complete());
    EXPECT_EQ(result.read.droppedRecords, 0u);
    std::remove(path.c_str());
}

TEST(Resilience, ShardedReplayReportsUnopenableFileAsError)
{
    const TargetSpec spec;
    TargetFactory factory = [&spec] {
        return OrgRegistry::global().buildTarget("a2", spec);
    };
    ShardOptions opts;
    opts.shards = 2;
    const ShardedReplayResult result = shardedReplayFile(
        factory, "/nonexistent/path/x.trc", opts);
    EXPECT_FALSE(result.error.ok());
    EXPECT_EQ(result.error.code, ErrorCode::OpenFailed);
}

// ---- parallelFor containment -----------------------------------------

TEST(Resilience, ParallelForContainsAndRethrowsWorkerExceptions)
{
    std::atomic<unsigned> completed{0};
    EXPECT_THROW(
        parallelFor(4, 32,
                    [&](std::size_t i) {
                        if (i == 7)
                            throw std::runtime_error("poisoned");
                        ++completed;
                    }),
        std::runtime_error);
    // Every other iteration still ran: one failure does not strand
    // the remaining work items.
    EXPECT_EQ(completed.load(), 31u);
}

TEST(Resilience, ParallelForInlinePathPropagates)
{
    EXPECT_THROW(parallelFor(1, 4,
                             [](std::size_t i) {
                                 if (i == 2)
                                     throw std::runtime_error("x");
                             }),
                 std::runtime_error);
}

} // anonymous namespace
} // namespace cac
