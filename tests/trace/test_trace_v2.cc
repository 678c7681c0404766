/**
 * @file
 * CACTRC02 container tests: CRC32C known answers and hardware/portable
 * agreement, the exact on-disk layout (file sizes, header fields),
 * round-tripping, seeking, and re-chunked delivery.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>

#include <gtest/gtest.h>

#include "common/crc32c.hh"
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

/** On-disk size of a CACTRC02 file with @p n records in @p c chunks. */
std::uintmax_t
v2FileSize(std::uint64_t n, std::uint64_t c)
{
    const std::uint64_t chunks = n == 0 ? 0 : (n + c - 1) / c;
    return 24 + chunks * 20 + n * 24;
}

// ---- CRC32C ----------------------------------------------------------

TEST(Crc32c, StandardCheckValue)
{
    // The canonical CRC32C check vector (RFC 3720 appendix B / zlib).
    EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
    EXPECT_EQ(crc32cPortable("123456789", 9), 0xE3069283u);
}

TEST(Crc32c, EmptyBufferIsZero)
{
    EXPECT_EQ(crc32c("", 0), 0u);
    EXPECT_EQ(crc32cPortable("", 0), 0u);
}

TEST(Crc32c, SeedChainsPartialBuffers)
{
    const char *text = "the quick brown fox jumps over the lazy dog";
    const std::size_t len = std::strlen(text);
    const std::uint32_t whole = crc32c(text, len);
    for (std::size_t cut = 0; cut <= len; ++cut) {
        EXPECT_EQ(crc32c(text + cut, len - cut, crc32c(text, cut)),
                  whole)
            << cut;
    }
}

TEST(Crc32c, DispatchedMatchesPortableAcrossSizesAndAlignments)
{
    Rng rng(42);
    std::vector<std::uint8_t> buf(4096 + 64);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.nextBelow(256));

    // Sweep lengths through every lane/tail combination of both the
    // slice-by-8 and the 3-way hardware kernels, at odd alignments.
    for (std::size_t len : {std::size_t{1}, std::size_t{7},
                            std::size_t{8}, std::size_t{23},
                            std::size_t{24}, std::size_t{255},
                            std::size_t{256}, std::size_t{767},
                            std::size_t{768}, std::size_t{769},
                            std::size_t{1000}, std::size_t{4096}}) {
        for (std::size_t align : {std::size_t{0}, std::size_t{1},
                                  std::size_t{3}, std::size_t{7}}) {
            const std::uint8_t *p = buf.data() + align;
            EXPECT_EQ(crc32c(p, len), crc32cPortable(p, len))
                << "len=" << len << " align=" << align;
        }
    }
}

// ---- CACTRC02 layout -------------------------------------------------

TEST(TraceV2, FileSizeMatchesTheLayoutFormula)
{
    const std::string path = tmpPath("cac_v2_size.trc");
    struct Case
    {
        std::size_t records;
        std::size_t chunk;
    };
    for (const Case &c : {Case{0, 4096}, Case{1, 4096}, Case{100, 16},
                          Case{96, 16}, Case{4096, 4096},
                          Case{4097, 4096}}) {
        writeTrace(randomTrace(c.records, 11), path, TraceFormat::V2,
                   c.chunk);
        EXPECT_EQ(std::filesystem::file_size(path),
                  v2FileSize(c.records, c.chunk))
            << c.records << "/" << c.chunk;
    }
    std::remove(path.c_str());
}

TEST(TraceV2, HeaderReportsFormatAndChunking)
{
    const std::string path = tmpPath("cac_v2_header.trc");
    writeTrace(randomTrace(500, 12), path, TraceFormat::V2, 128);

    TraceReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.format(), TraceFormat::V2);
    EXPECT_EQ(reader.recordCount(), 500u);
    EXPECT_EQ(reader.fileChunkRecords(), 128u);

    writeTrace(randomTrace(500, 12), path, TraceFormat::V1);
    TraceReader legacy(path);
    ASSERT_TRUE(legacy.ok()) << legacy.error();
    EXPECT_EQ(legacy.format(), TraceFormat::V1);
    EXPECT_EQ(legacy.fileChunkRecords(), 0u);
    std::remove(path.c_str());
}

TEST(TraceV2, RoundTripsThroughBothReadPaths)
{
    const std::string path = tmpPath("cac_v2_roundtrip.trc");
    const Trace original = randomTrace(5000, 13);
    writeTrace(original, path, TraceFormat::V2, 512);

    expectTracesEqual(readTrace(path), original);

    TraceReader reader(path, 512);
    expectTracesEqual(drain(reader), original);
    EXPECT_TRUE(reader.ok()) << reader.error();
    EXPECT_FALSE(reader.readStats().degraded());
    std::remove(path.c_str());
}

TEST(TraceV2, RechunksWhenReaderAndFileDisagree)
{
    const std::string path = tmpPath("cac_v2_rechunk.trc");
    const Trace original = randomTrace(2500, 14);
    writeTrace(original, path, TraceFormat::V2, 1000);

    // Smaller, larger, and coprime consumer chunk sizes all deliver
    // the same stream through the staging buffer.
    for (std::size_t consumer : {std::size_t{100}, std::size_t{3000},
                                 std::size_t{333}}) {
        TraceReader reader(path, consumer);
        ASSERT_TRUE(reader.ok()) << reader.error();
        expectTracesEqual(drain(reader), original);
        EXPECT_EQ(reader.recordsRead(), 2500u);
    }
    std::remove(path.c_str());
}

TEST(TraceV2, SeekToLandsMidChunk)
{
    const std::string path = tmpPath("cac_v2_seek.trc");
    const Trace original = randomTrace(1000, 15);
    writeTrace(original, path, TraceFormat::V2, 128);

    TraceReader reader(path, 128);
    // 700 = chunk 5, record 60 within it — exercises the intra-chunk
    // discard.
    ASSERT_TRUE(reader.seekTo(700));
    const Trace tail = drain(reader);
    ASSERT_EQ(tail.size(), 300u);
    expectTracesEqual(tail,
                      Trace(original.begin() + 700, original.end()));

    // Chunk-aligned seek and past-the-end clamp.
    ASSERT_TRUE(reader.seekTo(128));
    EXPECT_EQ(drain(reader).size(), 872u);
    ASSERT_TRUE(reader.seekTo(99999));
    EXPECT_TRUE(reader.next().empty());
    EXPECT_TRUE(reader.ok());
    std::remove(path.c_str());
}

TEST(TraceV2, PrefetchDeliversTheSameStream)
{
    const std::string path = tmpPath("cac_v2_prefetch.trc");
    const Trace original = randomTrace(3000, 16);
    writeTrace(original, path, TraceFormat::V2, 100);

    TraceReader on(path, 100, Prefetch::On);
    ASSERT_TRUE(on.ok()) << on.error();
    expectTracesEqual(drain(on), original);
    on.rewind();
    expectTracesEqual(drain(on), original);
    ASSERT_TRUE(on.seekTo(2950));
    EXPECT_EQ(drain(on).size(), 50u);
    std::remove(path.c_str());
}

TEST(TraceV2, CorruptFileHeaderChecksumIsRejected)
{
    const std::string path = tmpPath("cac_v2_badhdr.trc");
    writeTrace(randomTrace(50, 17), path, TraceFormat::V2, 16);

    // Flip a bit inside the record-count field: the header CRC (bytes
    // 20..24 over bytes 0..20) must catch it.
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 9, SEEK_SET);
    int byte = std::fgetc(f);
    std::fseek(f, 9, SEEK_SET);
    std::fputc(byte ^ 0x10, f);
    std::fclose(f);

    TraceReader reader(path);
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.errorInfo().code, ErrorCode::BadFileHeader);
    std::remove(path.c_str());
}

TEST(TraceV2, TracegenDefaultIsReadableAsV2)
{
    // writeTrace's default format is the checksummed container.
    const std::string path = tmpPath("cac_v2_default.trc");
    const Trace original = randomTrace(200, 18);
    writeTrace(original, path);
    TraceReader reader(path);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.format(), TraceFormat::V2);
    expectTracesEqual(drain(reader), original);
    std::remove(path.c_str());
}

} // anonymous namespace
} // namespace cac
