/**
 * @file
 * Streaming-replay tests: TraceReader chunking against readTrace,
 * clean error reporting with byte offsets, and — the engine-level
 * guarantee — stats-equivalence of streamed vs fully-loaded replay for
 * every registry organization and the extended hierarchy/CPU targets.
 */

#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/registry.hh"
#include "core/sim_target.hh"
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

Trace
randomTrace(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Trace t;
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord rec;
        rec.op = static_cast<OpClass>(rng.nextBelow(10));
        rec.dst = static_cast<std::int8_t>(
            static_cast<std::int64_t>(rng.nextBelow(65)) - 1);
        rec.src1 = static_cast<std::int8_t>(
            static_cast<std::int64_t>(rng.nextBelow(65)) - 1);
        rec.src2 = -1;
        rec.taken = rng.chance(0.5);
        rec.addr = rng.next();
        rec.pc = static_cast<std::uint32_t>(rng.nextBelow(1 << 20)) * 4;
        t.push_back(rec);
    }
    return t;
}

/** Concatenate every chunk the reader yields. */
Trace
drain(TraceReader &reader)
{
    Trace all;
    while (true) {
        const std::vector<TraceRecord> &chunk = reader.next();
        if (chunk.empty())
            break;
        all.insert(all.end(), chunk.begin(), chunk.end());
    }
    return all;
}

void
expectTracesEqual(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].op, b[i].op) << i;
        EXPECT_EQ(a[i].dst, b[i].dst) << i;
        EXPECT_EQ(a[i].src1, b[i].src1) << i;
        EXPECT_EQ(a[i].src2, b[i].src2) << i;
        EXPECT_EQ(a[i].taken, b[i].taken) << i;
        EXPECT_EQ(a[i].addr, b[i].addr) << i;
        EXPECT_EQ(a[i].pc, b[i].pc) << i;
    }
}

TEST(TraceReader, EmptyTraceYieldsNoChunks)
{
    const std::string path = tmpPath("cac_reader_empty.trc");
    writeTrace({}, path);
    TraceReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.recordCount(), 0u);
    EXPECT_TRUE(reader.next().empty());
    EXPECT_TRUE(reader.next().empty()); // stays empty, stays ok
    EXPECT_TRUE(reader.ok());
    std::remove(path.c_str());
}

TEST(TraceReader, TraceSmallerThanOneChunk)
{
    const std::string path = tmpPath("cac_reader_small.trc");
    const Trace original = randomTrace(10, 3);
    writeTrace(original, path);
    TraceReader reader(path, 4096);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.recordCount(), 10u);
    const std::vector<TraceRecord> &chunk = reader.next();
    EXPECT_EQ(chunk.size(), 10u);
    EXPECT_TRUE(reader.next().empty());
    EXPECT_EQ(reader.recordsRead(), 10u);
    std::remove(path.c_str());
}

TEST(TraceReader, ChunkBoundaryStraddling)
{
    const std::string path = tmpPath("cac_reader_straddle.trc");
    // 2500 records over 1000-record chunks: 1000 + 1000 + 500.
    const Trace original = randomTrace(2500, 4);
    writeTrace(original, path);
    TraceReader reader(path, 1000);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.next().size(), 1000u);
    EXPECT_EQ(reader.next().size(), 1000u);
    EXPECT_EQ(reader.next().size(), 500u);
    EXPECT_TRUE(reader.next().empty());
    EXPECT_TRUE(reader.ok());

    // The chunk concatenation is the whole trace, field for field.
    reader.rewind();
    expectTracesEqual(drain(reader), original);
    std::remove(path.c_str());
}

TEST(TraceReader, MatchesReadTrace)
{
    const std::string path = tmpPath("cac_reader_match.trc");
    writeTrace(randomTrace(5000, 5), path);
    TraceReader reader(path, 257); // deliberately unaligned chunk size
    expectTracesEqual(drain(reader), readTrace(path));
    std::remove(path.c_str());
}

TEST(TraceReader, TruncationReportsByteOffsets)
{
    const std::string path = tmpPath("cac_reader_trunc.trc");
    // V1 explicitly: the offsets below assume the legacy layout.
    writeTrace(randomTrace(100, 6), path, TraceFormat::V1);
    // Chop mid-record: 50 whole records + 7 stray bytes remain.
    std::filesystem::resize_file(path, 16 + 24 * 50 + 7);

    TraceReader reader(path, 32);
    ASSERT_TRUE(reader.ok()) << reader.error();
    Trace partial = drain(reader);
    EXPECT_FALSE(reader.ok());
    EXPECT_LE(partial.size(), 50u);
    EXPECT_NE(reader.error().find("truncated"), std::string::npos)
        << reader.error();
    EXPECT_NE(reader.error().find("byte"), std::string::npos)
        << reader.error();
    // The expected full size (16 + 100 * 24) is named in the message.
    EXPECT_NE(reader.error().find("2416"), std::string::npos)
        << reader.error();
    std::remove(path.c_str());
}

TEST(TraceReader, TryReadTraceReportsErrorsWithoutExiting)
{
    Trace out;
    Error error;
    EXPECT_FALSE(tryReadTrace("/nonexistent/path/x.trc", out, error));
    EXPECT_NE(error.message().find("cannot open"), std::string::npos)
        << error.message();

    const std::string path = tmpPath("cac_reader_badmagic.trc");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fwrite("NOTATRACE_______", 16, 1, f);
    std::fclose(f);
    EXPECT_FALSE(tryReadTrace(path, out, error));
    EXPECT_NE(error.message().find("not a CACTRC01"), std::string::npos)
        << error.message();
    std::remove(path.c_str());
}

TEST(TraceReader, RewindReplaysFromTheFirstRecord)
{
    const std::string path = tmpPath("cac_reader_rewind.trc");
    writeTrace(randomTrace(300, 7), path);
    TraceReader reader(path, 128);
    const Trace first = drain(reader);
    reader.rewind();
    EXPECT_EQ(reader.recordsRead(), 0u);
    expectTracesEqual(drain(reader), first);
    std::remove(path.c_str());
}

TEST(TraceReader, SeekToPositionsMidStream)
{
    const std::string path = tmpPath("cac_reader_seek.trc");
    const Trace original = randomTrace(1000, 8);
    writeTrace(original, path);

    TraceReader reader(path, 128);
    ASSERT_TRUE(reader.seekTo(700));
    const Trace tail = drain(reader);
    ASSERT_EQ(tail.size(), 300u);
    expectTracesEqual(tail, Trace(original.begin() + 700,
                                  original.end()));
    // seekTo does not reset the delivered-records counter.
    EXPECT_EQ(reader.recordsRead(), 300u);

    // Seeking back mid-stream re-reads from the new position.
    ASSERT_TRUE(reader.seekTo(999));
    EXPECT_EQ(reader.next().size(), 1u);

    // Past-the-end clamps to end-of-trace: no records, still ok.
    ASSERT_TRUE(reader.seekTo(5000));
    EXPECT_TRUE(reader.next().empty());
    EXPECT_TRUE(reader.ok());
    std::remove(path.c_str());
}

TEST(TraceReader, PrefetchOnMatchesPrefetchOff)
{
    const std::string path = tmpPath("cac_reader_prefetch.trc");
    const Trace original = randomTrace(3000, 9);
    writeTrace(original, path);

    // Force the helper thread on even on a single-core machine, with a
    // chunk size that exercises many producer/consumer handoffs.
    TraceReader on(path, 100, Prefetch::On);
    ASSERT_TRUE(on.ok()) << on.error();
    expectTracesEqual(drain(on), original);
    EXPECT_EQ(on.recordsRead(), 3000u);
    EXPECT_TRUE(on.ok());

    // rewind() must stop and restart the prefetcher cleanly.
    on.rewind();
    EXPECT_EQ(on.recordsRead(), 0u);
    expectTracesEqual(drain(on), original);

    // seekTo() under prefetch delivers the same tail.
    ASSERT_TRUE(on.seekTo(2500));
    const Trace tail = drain(on);
    ASSERT_EQ(tail.size(), 500u);
    expectTracesEqual(tail, Trace(original.begin() + 2500,
                                  original.end()));
    std::remove(path.c_str());
}

TEST(TraceReader, PrefetchOnReportsTruncation)
{
    const std::string path = tmpPath("cac_reader_prefetch_trunc.trc");
    writeTrace(randomTrace(100, 10), path, TraceFormat::V1);
    std::filesystem::resize_file(path, 16 + 24 * 50 + 7);

    TraceReader reader(path, 32, Prefetch::On);
    ASSERT_TRUE(reader.ok()) << reader.error();
    const Trace partial = drain(reader);
    EXPECT_FALSE(reader.ok());
    EXPECT_LE(partial.size(), 50u);
    EXPECT_NE(reader.error().find("truncated"), std::string::npos)
        << reader.error();
    std::remove(path.c_str());
}

/**
 * The acceptance-criteria test: streamed replay is stats-identical to
 * fully-loaded replay for every registry organization (one example
 * label per entry) and for the extended hierarchy and CPU targets —
 * even with a chunk size chosen to straddle every internal batch.
 */
TEST(StreamedReplay, StatsMatchLoadedReplayForEveryTarget)
{
    const std::string path = tmpPath("cac_reader_equiv.trc");
    writeTrace(buildSpecProxy("swim", 20000), path);
    const Trace loaded = readTrace(path);

    std::vector<std::string> labels =
        OrgRegistry::global().exampleLabels();
    labels.push_back("2lvl:a2-Hp-Sk/a4");
    labels.push_back("2lvl:a2/a4");
    labels.push_back("cpu:8k-conv");
    labels.push_back("cpu:8k-ipoly-cp-pred");
    labels.push_back("cpu:a2-Hp-Sk");

    const TargetSpec spec;
    for (const std::string &label : labels) {
        ASSERT_TRUE(OrgRegistry::global().knownTarget(label)) << label;

        auto whole = OrgRegistry::global().buildTarget(label, spec);
        whole->replay(loaded.data(), loaded.size());
        whole->finish();
        const TargetStats want = whole->stats();

        auto streamed = OrgRegistry::global().buildTarget(label, spec);
        TraceReader reader(path, 333); // straddles every batch size
        while (true) {
            const std::vector<TraceRecord> &chunk = reader.next();
            if (chunk.empty())
                break;
            streamed->replay(chunk.data(), chunk.size());
        }
        ASSERT_TRUE(reader.ok()) << reader.error();
        streamed->finish();
        const TargetStats got = streamed->stats();

        EXPECT_EQ(got.l1.loads, want.l1.loads) << label;
        EXPECT_EQ(got.l1.stores, want.l1.stores) << label;
        EXPECT_EQ(got.l1.loadMisses, want.l1.loadMisses) << label;
        EXPECT_EQ(got.l1.storeMisses, want.l1.storeMisses) << label;
        EXPECT_EQ(got.l1.fills, want.l1.fills) << label;
        EXPECT_EQ(got.l1.evictions, want.l1.evictions) << label;
        ASSERT_EQ(got.hasHierarchy, want.hasHierarchy) << label;
        if (want.hasHierarchy) {
            EXPECT_EQ(got.l2.misses(), want.l2.misses()) << label;
            EXPECT_EQ(got.holes.holesCreated, want.holes.holesCreated)
                << label;
            EXPECT_EQ(got.holes.inclusionInvalidates,
                      want.holes.inclusionInvalidates)
                << label;
        }
        ASSERT_EQ(got.hasCpu, want.hasCpu) << label;
        if (want.hasCpu) {
            // Cycle-identical, not just stats-identical.
            EXPECT_EQ(got.cpu.cycles, want.cpu.cycles) << label;
            EXPECT_EQ(got.cpu.instructions, want.cpu.instructions)
                << label;
            EXPECT_EQ(got.cpu.branchMispredicts,
                      want.cpu.branchMispredicts)
                << label;
        }
    }
    std::remove(path.c_str());
}

} // anonymous namespace
} // namespace cac
