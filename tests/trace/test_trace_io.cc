/**
 * @file
 * Round-trip tests for the binary trace format.
 */

#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "trace/io.hh"

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

void
expectSameRecords(const Trace &got, const Trace &want,
                  const std::string &how)
{
    ASSERT_EQ(got.size(), want.size()) << how;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].op, want[i].op) << how << " record " << i;
        EXPECT_EQ(got[i].taken, want[i].taken) << how << " record " << i;
        EXPECT_EQ(got[i].dst, want[i].dst) << how << " record " << i;
        EXPECT_EQ(got[i].src1, want[i].src1) << how << " record " << i;
        EXPECT_EQ(got[i].src2, want[i].src2) << how << " record " << i;
        EXPECT_EQ(got[i].pc, want[i].pc) << how << " record " << i;
        EXPECT_EQ(got[i].addr, want[i].addr) << how << " record " << i;
    }
}

TEST(TraceIo, RoundTripPreservesEverything)
{
    const std::string path = tmpPath("cac_roundtrip.trc");
    Trace original = randomTrace(5000, 1);
    writeTrace(original, path);
    expectSameRecords(readTrace(path), original, "readTrace");
    std::remove(path.c_str());
}

/**
 * Records whose neighbouring fields take every combination that could
 * leak between them: each OpClass with taken 0 and 1, and each of dst,
 * src1 and src2 over {-1, 0, 31, 32, 63} independently. pc and addr
 * cycle through their extremes and alternating bit patterns with
 * coprime periods, so each one meets every op/taken pair too.
 */
Trace
fieldCornerTrace()
{
    const std::int8_t regs[] = {-1, 0, 31, 32, 63};
    const std::uint32_t pcs[] = {0u, 1u, 0x7fffffffu, 0x80000000u,
                                 0xffffffffu, 0xa5a5a5a5u, 0x5a5a5a5au};
    const std::uint64_t addrs[] = {0ull,
                                   1ull,
                                   0x7fffffffffffffffull,
                                   0x8000000000000000ull,
                                   0xffffffffffffffffull,
                                   0xa5a5a5a5a5a5a5a5ull,
                                   0x5a5a5a5a5a5a5a5aull,
                                   0x00000000ffffffffull,
                                   0xffffffff00000000ull,
                                   0x0123456789abcdefull,
                                   0xfedcba9876543210ull};
    Trace t;
    for (unsigned op = 0; op <= static_cast<unsigned>(OpClass::Branch);
         ++op) {
        for (const bool taken : {false, true}) {
            for (const std::int8_t dst : regs) {
                for (const std::int8_t src1 : regs) {
                    for (const std::int8_t src2 : regs) {
                        TraceRecord rec;
                        rec.op = static_cast<OpClass>(op);
                        rec.taken = taken;
                        rec.dst = dst;
                        rec.src1 = src1;
                        rec.src2 = src2;
                        rec.pc = pcs[t.size() % std::size(pcs)];
                        rec.addr = addrs[t.size() % std::size(addrs)];
                        t.push_back(rec);
                    }
                }
            }
        }
    }
    return t;
}

TEST(TraceIo, FieldCornersRoundTripThroughEveryReadPath)
{
    const Trace original = fieldCornerTrace();
    ASSERT_EQ(original.size(), 10u * 2u * 125u);
    const std::string path = tmpPath("cac_field_corners.trc");
    for (const TraceFormat format : {TraceFormat::V1, TraceFormat::V2}) {
        const std::string fmt =
            format == TraceFormat::V1 ? "v1" : "v2";
        writeTrace(original, path, format, 256);
        expectSameRecords(readTrace(path), original, fmt + " readTrace");

        // Reader chunks equal to (256) and out of step with (97) the
        // file's chunking, each with read-ahead off and on.
        for (const std::size_t chunk : {std::size_t{256}, std::size_t{97}}) {
            for (const Prefetch prefetch : {Prefetch::Off, Prefetch::On}) {
                const std::string how =
                    fmt + " TraceReader chunk " + std::to_string(chunk)
                    + (prefetch == Prefetch::On ? " prefetch"
                                                : " no-prefetch");
                TraceReader reader(path, chunk, prefetch);
                ASSERT_TRUE(reader.ok()) << how << ": " << reader.error();
                Trace got;
                while (true) {
                    const std::vector<TraceRecord> &c = reader.next();
                    if (c.empty())
                        break;
                    got.insert(got.end(), c.begin(), c.end());
                }
                EXPECT_TRUE(reader.ok()) << how << ": " << reader.error();
                expectSameRecords(got, original, how);
            }
        }
    }
    std::remove(path.c_str());
}

TEST(TraceIo, EmptyTraceRoundTrips)
{
    const std::string path = tmpPath("cac_empty.trc");
    writeTrace({}, path);
    EXPECT_TRUE(readTrace(path).empty());
    std::remove(path.c_str());
}

TEST(TraceIoDeath, MissingFileIsFatal)
{
    EXPECT_EXIT((void)readTrace("/nonexistent/path/x.trc"),
                ::testing::ExitedWithCode(1), "cannot open");
}

TEST(TraceIoDeath, BadMagicIsFatal)
{
    const std::string path = tmpPath("cac_badmagic.trc");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fwrite("NOTATRACE_______", 16, 1, f);
    std::fclose(f);
    EXPECT_EXIT((void)readTrace(path), ::testing::ExitedWithCode(1),
                "not a CACTRC01");
    std::remove(path.c_str());
}

TEST(TraceIoDeath, TruncatedBodyIsFatal)
{
    const std::string path = tmpPath("cac_trunc.trc");
    // V1 explicitly: this test pins the legacy byte layout.
    writeTrace(randomTrace(100, 2), path, TraceFormat::V1);
    // Chop the file.
    std::filesystem::resize_file(path, 16 + 24 * 50 + 7);
    EXPECT_EXIT((void)readTrace(path), ::testing::ExitedWithCode(1),
                "truncated");
    std::remove(path.c_str());
}

} // anonymous namespace
} // namespace cac
