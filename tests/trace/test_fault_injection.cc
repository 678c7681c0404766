/**
 * @file
 * Chaos suite for the fault-tolerant trace pipeline: every fault class
 * (bit flips, corrupt headers, truncation at every byte offset,
 * transient I/O failures, short reads, injected worker exceptions)
 * crossed with every read policy must either complete with exact
 * dropped-record accounting or fail with a structured error — never
 * crash, hang, or silently simulate corrupt data.
 */

#include <cstdio>
#include <filesystem>
#include <functional>

#include <gtest/gtest.h>

#include "common/crc32c.hh"
#include "common/rng.hh"
#include "trace/fault_injector.hh"
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
        EXPECT_EQ(a[i].addr, b[i].addr) << i;
        EXPECT_EQ(a[i].pc, b[i].pc) << i;
    }
}

/** XOR @p mask into the byte at @p offset of the file. */
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

TraceReaderOptions
withPolicy(ReadPolicy policy, std::size_t chunk = 100)
{
    TraceReaderOptions o;
    o.chunkRecords = chunk;
    o.policy = policy;
    return o;
}

// ---- payload corruption ----------------------------------------------

/**
 * The headline acceptance test: a single flipped payload bit in a
 * CACTRC02 file is DETECTED — strict fails with ChecksumMismatch at
 * the right chunk, skip/resync quarantine exactly that chunk with
 * exact drop totals. It is never silently replayed as data.
 */
TEST(FaultInjection, FlippedPayloadBitIsDetectedNotSimulated)
{
    const std::string path = tmpPath("cac_fi_flip.trc");
    const Trace original = randomTrace(1000, 21);
    writeTrace(original, path, TraceFormat::V2, 100);
    // One bit in the payload of chunk 3 (payload starts 20 bytes past
    // the chunk header).
    flipBit(path, chunkOffset(3, 100) + 20 + 57, 0x04);

    {
        TraceReader strict(path, withPolicy(ReadPolicy::Strict));
        const Trace got = drain(strict);
        EXPECT_FALSE(strict.ok());
        EXPECT_EQ(strict.errorInfo().code, ErrorCode::ChecksumMismatch);
        EXPECT_EQ(strict.errorInfo().chunkIndex, 3u);
        EXPECT_EQ(got.size(), 300u); // chunks 0..2 delivered intact
    }

    for (ReadPolicy policy : {ReadPolicy::Skip, ReadPolicy::Resync}) {
        TraceReader reader(path, withPolicy(policy));
        const Trace got = drain(reader);
        EXPECT_TRUE(reader.ok()) << reader.error();
        const ReadStats &st = reader.readStats();
        EXPECT_EQ(st.droppedRecords, 100u);
        EXPECT_EQ(st.droppedChunks, 1u);
        EXPECT_EQ(st.crcErrors, 1u);
        EXPECT_TRUE(st.degraded());
        ASSERT_EQ(got.size(), 900u);
        // Exact accounting: delivered + dropped == promised.
        EXPECT_EQ(reader.recordsRead() + st.droppedRecords,
                  reader.recordCount());
        // The surviving records are the original ones, bit for bit.
        Trace expect(original.begin(), original.begin() + 300);
        expect.insert(expect.end(), original.begin() + 400,
                      original.end());
        expectTracesEqual(got, expect);
    }
    std::remove(path.c_str());
}

// ---- CRC-valid but invalid records (BadRecord) ---------------------

/**
 * @p trace with record @p index given an opcode above the last
 * OpClass, as a buggy producer would write it: the writer seals the
 * chunk with valid checksums, so only the decoder's opcode check
 * (BadRecord) can catch it. 0x7F is the largest opcode the in-memory
 * 7-bit field holds; larger op bytes are written straight into a file
 * (BadRecordV1HighOpByteNeverReachesTheRecord).
 */
Trace
withBadOpcode(Trace trace, std::size_t index)
{
    trace[index].op = static_cast<OpClass>(0x7F);
    return trace;
}

TEST(FaultInjection, BadRecordV2StrictNamesChunkAndOffset)
{
    const std::string path = tmpPath("cac_fi_badrec_v2.trc");
    writeTrace(withBadOpcode(randomTrace(1000, 31), 437), path,
               TraceFormat::V2, 100);

    TraceReader reader(path, withPolicy(ReadPolicy::Strict));
    const Trace got = drain(reader);
    EXPECT_FALSE(reader.ok());
    const Error &err = reader.errorInfo();
    EXPECT_EQ(err.code, ErrorCode::BadRecord) << err.message();
    EXPECT_EQ(err.chunkIndex, 4u);
    EXPECT_EQ(err.byteOffset,
              static_cast<std::uint64_t>(chunkOffset(4, 100) + 20 + 37 * 24));
    EXPECT_EQ(reader.readStats().crcErrors, 0u); // checksums agreed
    EXPECT_EQ(got.size(), 400u); // chunks 0..3 delivered intact
    std::remove(path.c_str());
}

TEST(FaultInjection, BadRecordV2SkipDropsExactlyTheRecord)
{
    const std::string path = tmpPath("cac_fi_badrec_v2_skip.trc");
    const Trace original = randomTrace(1000, 32);
    writeTrace(withBadOpcode(original, 600), path, TraceFormat::V2, 100);

    TraceReader reader(path, withPolicy(ReadPolicy::Skip));
    const Trace got = drain(reader);
    EXPECT_TRUE(reader.ok()) << reader.error();
    const ReadStats &st = reader.readStats();
    EXPECT_EQ(st.droppedRecords, 1u);
    EXPECT_EQ(st.droppedChunks, 0u);
    EXPECT_EQ(st.crcErrors, 0u);
    EXPECT_TRUE(st.degraded());
    EXPECT_EQ(reader.recordsRead() + st.droppedRecords,
              reader.recordCount());
    Trace expect(original.begin(), original.begin() + 600);
    expect.insert(expect.end(), original.begin() + 601, original.end());
    expectTracesEqual(got, expect);
    std::remove(path.c_str());
}

TEST(FaultInjection, BadRecordV1StrictNamesChunkAndOffset)
{
    const std::string path = tmpPath("cac_fi_badrec_v1.trc");
    writeTrace(withBadOpcode(randomTrace(1000, 33), 523), path,
               TraceFormat::V1);

    TraceReader reader(path, withPolicy(ReadPolicy::Strict));
    const Trace got = drain(reader);
    EXPECT_FALSE(reader.ok());
    const Error &err = reader.errorInfo();
    EXPECT_EQ(err.code, ErrorCode::BadRecord) << err.message();
    EXPECT_EQ(err.chunkIndex, 5u); // 100-record reader chunks
    // V1: a 16-byte header, then bare 24-byte records.
    EXPECT_EQ(err.byteOffset, 16u + 523u * 24u);
    EXPECT_EQ(got.size(), 500u);
    std::remove(path.c_str());
}

TEST(FaultInjection, BadRecordV1SkipDropsExactlyTheRecord)
{
    const std::string path = tmpPath("cac_fi_badrec_v1_skip.trc");
    const Trace original = randomTrace(1000, 34);
    // The very last record: the drop ends the stream cleanly.
    writeTrace(withBadOpcode(original, 999), path, TraceFormat::V1);

    TraceReader reader(path, withPolicy(ReadPolicy::Skip));
    const Trace got = drain(reader);
    EXPECT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.readStats().droppedRecords, 1u);
    EXPECT_EQ(reader.recordsRead() + reader.readStats().droppedRecords,
              reader.recordCount());
    expectTracesEqual(got, Trace(original.begin(), original.end() - 1));
    std::remove(path.c_str());
}

TEST(FaultInjection, BadRecordV1HighOpByteNeverReachesTheRecord)
{
    // An op byte >= 0x80 does not fit the 7-bit in-memory field; only
    // the reader's range check keeps it from being truncated into a
    // record. V1 has no checksum, so the byte goes straight into the
    // file and reaches the decoder unchanged.
    const std::string path = tmpPath("cac_fi_badrec_v1_high.trc");
    const Trace original = randomTrace(1000, 35);
    writeTrace(original, path, TraceFormat::V1);
    flipBit(path, 16 + 311 * 24, static_cast<int>(original[311].op) ^ 0xEE);

    {
        TraceReader strict(path, withPolicy(ReadPolicy::Strict));
        const Trace got = drain(strict);
        EXPECT_FALSE(strict.ok());
        const Error &err = strict.errorInfo();
        EXPECT_EQ(err.code, ErrorCode::BadRecord) << err.message();
        EXPECT_NE(err.message().find("invalid opcode 238"),
                  std::string::npos)
            << err.message();
        EXPECT_EQ(err.byteOffset, 16u + 311u * 24u);
        EXPECT_EQ(got.size(), 300u);
    }
    {
        TraceReader skip(path, withPolicy(ReadPolicy::Skip));
        const Trace got = drain(skip);
        EXPECT_TRUE(skip.ok()) << skip.error();
        EXPECT_EQ(skip.readStats().droppedRecords, 1u);
        Trace expect(original.begin(), original.begin() + 311);
        expect.insert(expect.end(), original.begin() + 312,
                      original.end());
        expectTracesEqual(got, expect);
    }
    std::remove(path.c_str());
}

TEST(FaultInjection, CorruptChunkHeaderSkipsOrResyncs)
{
    const std::string path = tmpPath("cac_fi_badchunk.trc");
    writeTrace(randomTrace(1000, 22), path, TraceFormat::V2, 100);
    // Break chunk 5's count field: its header CRC no longer matches.
    flipBit(path, chunkOffset(5, 100) + 8, 0x01);

    {
        TraceReader strict(path, withPolicy(ReadPolicy::Strict));
        drain(strict);
        EXPECT_FALSE(strict.ok());
        EXPECT_EQ(strict.errorInfo().code, ErrorCode::BadChunkHeader);
        EXPECT_EQ(strict.errorInfo().chunkIndex, 5u);
    }

    // Fixed chunking means skip can stride straight to chunk 6; resync
    // finds the same chunk by scanning. Either way exactly 100 records
    // are lost.
    for (ReadPolicy policy : {ReadPolicy::Skip, ReadPolicy::Resync}) {
        TraceReader reader(path, withPolicy(policy));
        const Trace got = drain(reader);
        EXPECT_TRUE(reader.ok()) << reader.error();
        EXPECT_EQ(got.size(), 900u);
        EXPECT_EQ(reader.readStats().droppedRecords, 100u);
        EXPECT_EQ(reader.readStats().droppedChunks, 1u);
    }
    std::remove(path.c_str());
}

TEST(FaultInjection, VerificationCanBeDisabled)
{
    // --no-verify replays a payload-corrupt file without complaint
    // (the perf harness measures this switch); structural checks on
    // the chunk headers still run.
    const std::string path = tmpPath("cac_fi_noverify.trc");
    writeTrace(randomTrace(500, 23), path, TraceFormat::V2, 100);
    flipBit(path, chunkOffset(1, 100) + 20 + 3, 0x80);

    TraceReaderOptions opts = withPolicy(ReadPolicy::Strict);
    opts.verifyChecksums = false;
    TraceReader reader(path, opts);
    EXPECT_EQ(drain(reader).size(), 500u);
    EXPECT_TRUE(reader.ok()) << reader.error();
    EXPECT_FALSE(reader.readStats().degraded());
    std::remove(path.c_str());
}

// ---- truncation matrix -----------------------------------------------

/**
 * Truncate a small trace at EVERY byte offset and read it back under
 * every policy: each combination must return cleanly (success with
 * drop accounting or a structured error), never crash — under
 * ASan/UBSan in the sanitizer CI lane this is the memory-safety sweep
 * of the whole decode path.
 */
TEST(FaultInjection, TruncationMatrixEveryByteOffsetBothFormats)
{
    const Trace original = randomTrace(40, 24);
    struct Variant
    {
        const char *name;
        TraceFormat format;
        std::size_t chunk;
    };
    for (const Variant &v :
         {Variant{"cac_fi_trunc_v1.trc", TraceFormat::V1, 16},
          Variant{"cac_fi_trunc_v2.trc", TraceFormat::V2, 16}}) {
        const std::string full = tmpPath(v.name);
        writeTrace(original, full, v.format, v.chunk);
        const std::uintmax_t size = std::filesystem::file_size(full);
        const std::string path = tmpPath("cac_fi_trunc_cut.trc");

        for (std::uintmax_t cut = 0; cut < size; ++cut) {
            std::filesystem::copy_file(
                full, path,
                std::filesystem::copy_options::overwrite_existing);
            std::filesystem::resize_file(path, cut);

            for (ReadPolicy policy :
                 {ReadPolicy::Strict, ReadPolicy::Skip,
                  ReadPolicy::Resync}) {
                Trace out;
                Error error;
                ReadStats stats;
                const bool ok = tryReadTrace(path, out, error,
                                             withPolicy(policy, 16),
                                             &stats);
                if (ok) {
                    // Whatever arrived plus the drop total must cover
                    // the promised count exactly.
                    EXPECT_EQ(out.size() + stats.droppedRecords, 40u)
                        << v.name << " cut=" << cut;
                } else {
                    EXPECT_NE(error.code, ErrorCode::None)
                        << v.name << " cut=" << cut;
                }
            }
        }
        std::remove(full.c_str());
        std::remove(path.c_str());
    }

    // Lying headers: files that end right after a header promising
    // 2^62 records — a 16-byte CACTRC01 one and a CRC-valid 24-byte
    // CACTRC02 one. Strict must report Truncated (not abort on a
    // 2^62-record allocation, nor print a wrapped byte count); Skip
    // and Resync must account every promised record as dropped
    // without one failed read per missing chunk.
    constexpr std::uint64_t kLie = std::uint64_t{1} << 62;
    std::vector<std::uint8_t> v1 = {'C', 'A', 'C', 'T', 'R', 'C', '0', '1'};
    std::vector<std::uint8_t> v2 = {'C', 'A', 'C', 'T', 'R', 'C', '0', '2'};
    const auto append = [](std::vector<std::uint8_t> &bytes,
                           std::uint64_t value, int width) {
        for (int i = 0; i < width; ++i)
            bytes.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
    };
    append(v1, kLie, 8);
    append(v2, kLie, 8);
    append(v2, 4096, 4); // records per chunk
    append(v2, crc32c(v2.data(), 20), 4);
    const std::string path = tmpPath("cac_fi_trunc_lie.trc");
    for (const auto *header : {&v1, &v2}) {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(header->data(), 1, header->size(), f);
        std::fclose(f);
        const std::string name = header == &v1 ? "v1 lie" : "v2 lie";

        Trace out;
        Error error;
        ASSERT_FALSE(tryReadTrace(path, out, error,
                                  withPolicy(ReadPolicy::Strict)))
            << name;
        EXPECT_EQ(error.code, ErrorCode::Truncated) << name;
        EXPECT_EQ(error.message().find("expected 16 bytes"),
                  std::string::npos)
            << error.message();
        for (ReadPolicy policy : {ReadPolicy::Skip, ReadPolicy::Resync}) {
            ReadStats stats;
            ASSERT_TRUE(tryReadTrace(path, out, error, withPolicy(policy),
                                     &stats))
                << name << ": " << error.message();
            EXPECT_TRUE(out.empty()) << name;
            EXPECT_EQ(stats.droppedRecords, kLie) << name;
        }
    }
    std::remove(path.c_str());
}

// ---- delivery-mode parity --------------------------------------------

/**
 * Drain @p path under @p opts once synchronously and once through the
 * prefetch thread. Both modes run the same contained producer, so
 * they must agree on everything a caller can observe: ok(), every
 * delivered record, the Error (code, message, byte offset, chunk
 * index) and every ReadStats field.
 */
::testing::AssertionResult
deliveryModesAgree(const std::string &path, TraceReaderOptions opts)
{
    opts.prefetch = Prefetch::Off;
    TraceReader sync(path, opts);
    const Trace sync_records = drain(sync);
    opts.prefetch = Prefetch::On;
    TraceReader prefetch(path, opts);
    const Trace prefetch_records = drain(prefetch);

    const Error &a = sync.errorInfo();
    const Error &b = prefetch.errorInfo();
    const ReadStats &s = sync.readStats();
    const ReadStats &t = prefetch.readStats();
    if (sync.ok() != prefetch.ok() || a.code != b.code
        || a.message() != b.message() || a.byteOffset != b.byteOffset
        || a.chunkIndex != b.chunkIndex)
        return ::testing::AssertionFailure()
               << "errors differ: sync '" << a.message() << "' at byte "
               << a.byteOffset << " chunk " << a.chunkIndex
               << ", prefetch '" << b.message() << "' at byte "
               << b.byteOffset << " chunk " << b.chunkIndex;
    if (s.droppedRecords != t.droppedRecords
        || s.droppedChunks != t.droppedChunks
        || s.crcErrors != t.crcErrors || s.resyncs != t.resyncs
        || s.retries != t.retries)
        return ::testing::AssertionFailure()
               << "read stats differ: dropped " << s.droppedRecords
               << "/" << t.droppedRecords << ", chunks "
               << s.droppedChunks << "/" << t.droppedChunks;
    if (sync.recordsRead() != prefetch.recordsRead()
        || sync_records.size() != prefetch_records.size())
        return ::testing::AssertionFailure()
               << "delivered " << sync_records.size() << " vs "
               << prefetch_records.size() << " records";
    for (std::size_t i = 0; i < sync_records.size(); ++i) {
        const TraceRecord &x = sync_records[i];
        const TraceRecord &y = prefetch_records[i];
        if (x.op != y.op || x.addr != y.addr || x.pc != y.pc
            || x.taken != y.taken || x.dst != y.dst || x.src1 != y.src1
            || x.src2 != y.src2)
            return ::testing::AssertionFailure()
                   << "record " << i << " differs";
    }
    return ::testing::AssertionSuccess();
}

/**
 * The truncation matrix again, with every cut × policy × container
 * (two CACTRC02 file chunkings, two reader chunkings) drained in both
 * delivery modes. On a multi-core host Prefetch::Auto only ever runs
 * the prefetch thread, so this is what covers the synchronous path's
 * damage handling.
 */
TEST(FaultInjection, TruncationMatrixPrefetchParity)
{
    const Trace original = randomTrace(40, 24);
    struct Variant
    {
        TraceFormat format;
        std::size_t fileChunk;
    };
    const std::string full = tmpPath("cac_fi_parity_full.trc");
    const std::string path = tmpPath("cac_fi_parity_cut.trc");
    for (const Variant &v : {Variant{TraceFormat::V1, 16},
                             Variant{TraceFormat::V2, 16},
                             Variant{TraceFormat::V2, 7}}) {
        writeTrace(original, full, v.format, v.fileChunk);
        const std::uintmax_t size = std::filesystem::file_size(full);
        for (std::uintmax_t cut = 0; cut < size; ++cut) {
            std::filesystem::copy_file(
                full, path,
                std::filesystem::copy_options::overwrite_existing);
            std::filesystem::resize_file(path, cut);
            for (ReadPolicy policy :
                 {ReadPolicy::Strict, ReadPolicy::Skip,
                  ReadPolicy::Resync}) {
                for (std::size_t read_chunk : {16, 5}) {
                    ASSERT_TRUE(deliveryModesAgree(
                        path, withPolicy(policy, read_chunk)))
                        << (v.format == TraceFormat::V1 ? "V1" : "V2")
                        << " file chunk " << v.fileChunk << " cut "
                        << cut << " policy "
                        << static_cast<int>(policy) << " read chunk "
                        << read_chunk;
                }
            }
        }
    }
    std::remove(full.c_str());
    std::remove(path.c_str());
}

/**
 * Delivery-mode parity on the BadRecord, corrupt-chunk-header and
 * flipped-payload files of the cases above, under every policy and two
 * reader chunkings (matching the file's and re-chunking it).
 */
TEST(FaultInjection, DamagedFilePrefetchParity)
{
    const std::string path = tmpPath("cac_fi_parity_damage.trc");
    const std::vector<std::function<void()>> damages = {
        [&] {
            writeTrace(withBadOpcode(randomTrace(1000, 31), 437), path,
                       TraceFormat::V2, 100);
        },
        [&] {
            writeTrace(withBadOpcode(randomTrace(1000, 33), 523), path,
                       TraceFormat::V1);
        },
        [&] {
            const Trace original = randomTrace(1000, 35);
            writeTrace(original, path, TraceFormat::V1);
            flipBit(path, 16 + 311 * 24,
                    static_cast<int>(original[311].op) ^ 0xEE);
        },
        [&] {
            writeTrace(randomTrace(1000, 22), path, TraceFormat::V2, 100);
            flipBit(path, chunkOffset(5, 100) + 8, 0x01);
        },
        [&] {
            writeTrace(randomTrace(1000, 21), path, TraceFormat::V2, 100);
            flipBit(path, chunkOffset(3, 100) + 20 + 57, 0x04);
        },
    };
    for (std::size_t d = 0; d < damages.size(); ++d) {
        damages[d]();
        for (ReadPolicy policy : {ReadPolicy::Strict, ReadPolicy::Skip,
                                  ReadPolicy::Resync}) {
            for (std::size_t read_chunk : {100, 37}) {
                ASSERT_TRUE(deliveryModesAgree(
                    path, withPolicy(policy, read_chunk)))
                    << "damage " << d << " policy "
                    << static_cast<int>(policy) << " read chunk "
                    << read_chunk;
            }
        }
    }
    std::remove(path.c_str());
}

// ---- injected storage faults -----------------------------------------

TEST(FaultInjection, TransientFailuresAreRetriedTransparently)
{
    const std::string path = tmpPath("cac_fi_transient.trc");
    const Trace original = randomTrace(2000, 25);
    writeTrace(original, path, TraceFormat::V2, 100);

    TraceReaderOptions opts = withPolicy(ReadPolicy::Strict);
    FaultInjector::Spec spec;
    spec.seed = 7;
    spec.transientProb = 0.2;
    opts.inject = spec;

    TraceReader reader(path, opts);
    ASSERT_TRUE(reader.ok()) << reader.error();
    expectTracesEqual(drain(reader), original);
    EXPECT_TRUE(reader.ok()) << reader.error();
    EXPECT_GT(reader.readStats().retries, 0u);
    EXPECT_GT(reader.injector()->counters().transients, 0u);
    EXPECT_FALSE(reader.readStats().degraded());
    std::remove(path.c_str());
}

TEST(FaultInjection, BurstWithinRetryBudgetRecovers)
{
    const std::string path = tmpPath("cac_fi_burst.trc");
    const Trace original = randomTrace(500, 26);
    writeTrace(original, path, TraceFormat::V2, 100);

    TraceReaderOptions opts = withPolicy(ReadPolicy::Strict);
    FaultInjector::Spec spec;
    spec.seed = 3;
    spec.transientProb = 0.05;
    spec.transientBurst = 4; // < the reader's 5-retry budget
    opts.inject = spec;

    TraceReader reader(path, opts);
    expectTracesEqual(drain(reader), original);
    EXPECT_TRUE(reader.ok()) << reader.error();
    std::remove(path.c_str());
}

TEST(FaultInjection, PersistentFailureExhaustsRetriesWithReadFailed)
{
    const std::string path = tmpPath("cac_fi_persistent.trc");
    writeTrace(randomTrace(500, 27), path, TraceFormat::V2, 100);

    TraceReaderOptions opts = withPolicy(ReadPolicy::Strict);
    FaultInjector::Spec spec;
    spec.transientProb = 1.0; // every read fails, forever
    spec.transientBurst = 1000;
    opts.inject = spec;

    // The very first header read exhausts the budget: the reader
    // parks in the failed state instead of spinning or crashing.
    TraceReader reader(path, opts);
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.errorInfo().code, ErrorCode::ReadFailed);
    EXPECT_TRUE(reader.next().empty());
    std::remove(path.c_str());
}

TEST(FaultInjection, ShortReadsAreResumedTransparently)
{
    const std::string path = tmpPath("cac_fi_short.trc");
    const Trace original = randomTrace(2000, 28);
    writeTrace(original, path, TraceFormat::V2, 100);

    TraceReaderOptions opts = withPolicy(ReadPolicy::Strict);
    FaultInjector::Spec spec;
    spec.seed = 9;
    spec.shortReadProb = 0.9;
    opts.inject = spec;

    TraceReader reader(path, opts);
    expectTracesEqual(drain(reader), original);
    EXPECT_TRUE(reader.ok()) << reader.error();
    EXPECT_GT(reader.injector()->counters().shortReads, 0u);
    std::remove(path.c_str());
}

TEST(FaultInjection, InjectedBitFlipsAreCaughtByChecksums)
{
    const std::string path = tmpPath("cac_fi_inflip.trc");
    writeTrace(randomTrace(5000, 29), path, TraceFormat::V2, 100);

    TraceReaderOptions opts = withPolicy(ReadPolicy::Skip);
    FaultInjector::Spec spec;
    spec.seed = 5;
    spec.flipPerByte = 1e-4; // ~12 flipped bits over 120 KB
    opts.inject = spec;

    TraceReader reader(path, opts);
    const Trace got = drain(reader);
    EXPECT_TRUE(reader.ok()) << reader.error();
    const ReadStats &st = reader.readStats();
    EXPECT_GT(reader.injector()->counters().flippedBits, 0u);
    // Every flip lands in a counted drop; nothing is silently kept.
    EXPECT_TRUE(st.degraded());
    EXPECT_EQ(got.size() + st.droppedRecords, 5000u);
    std::remove(path.c_str());
}

TEST(FaultInjection, InjectedLatencyOnlySlowsTheRead)
{
    const std::string path = tmpPath("cac_fi_lat.trc");
    const Trace original = randomTrace(200, 30);
    writeTrace(original, path, TraceFormat::V2, 100);

    TraceReaderOptions opts = withPolicy(ReadPolicy::Strict);
    FaultInjector::Spec spec;
    spec.latencyUs = 100;
    opts.inject = spec;

    TraceReader reader(path, opts);
    expectTracesEqual(drain(reader), original);
    EXPECT_TRUE(reader.ok()) << reader.error();
    std::remove(path.c_str());
}

// ---- worker exception containment ------------------------------------

TEST(FaultInjection, ForeignExceptionInPrefetchThreadIsContained)
{
    const std::string path = tmpPath("cac_fi_throw_pf.trc");
    writeTrace(randomTrace(2000, 31), path, TraceFormat::V2, 100);

    TraceReaderOptions opts = withPolicy(ReadPolicy::Strict);
    opts.prefetch = Prefetch::On;
    FaultInjector::Spec spec;
    spec.throwAfterReads = 9; // mid-stream, inside the helper thread
    opts.inject = spec;

    TraceReader reader(path, opts);
    drain(reader);
    // The throw surfaces as a structured error on the consumer —
    // never std::terminate.
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.errorInfo().code, ErrorCode::WorkerFailed);
    EXPECT_NE(reader.error().find("injected"), std::string::npos)
        << reader.error();
    std::remove(path.c_str());
}

TEST(FaultInjection, DestructorJoinsAPoisonedPrefetchThread)
{
    // Regression for the prefetch-thread lifecycle: construct, let the
    // helper thread die on an injected exception, and destroy the
    // reader without ever calling next(). Must not hang or terminate.
    const std::string path = tmpPath("cac_fi_throw_dtor.trc");
    writeTrace(randomTrace(2000, 32), path, TraceFormat::V2, 100);

    TraceReaderOptions opts = withPolicy(ReadPolicy::Strict);
    opts.prefetch = Prefetch::On;
    FaultInjector::Spec spec;
    spec.throwAfterReads = 9;
    opts.inject = spec;

    { TraceReader reader(path, opts); }
    // Also: destruction mid-stream with a healthy helper thread.
    {
        TraceReaderOptions healthy = withPolicy(ReadPolicy::Strict);
        healthy.prefetch = Prefetch::On;
        TraceReader reader(path, healthy);
        reader.next();
    }
    SUCCEED();
    std::remove(path.c_str());
}

TEST(FaultInjection, ForeignExceptionWithoutPrefetchIsContained)
{
    const std::string path = tmpPath("cac_fi_throw_sync.trc");
    writeTrace(randomTrace(2000, 33), path, TraceFormat::V2, 100);

    TraceReaderOptions opts = withPolicy(ReadPolicy::Strict);
    opts.prefetch = Prefetch::Off;
    FaultInjector::Spec spec;
    spec.throwAfterReads = 9;
    opts.inject = spec;

    TraceReader reader(path, opts);
    ASSERT_TRUE(reader.ok()) << reader.error();
    drain(reader);
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.errorInfo().code, ErrorCode::WorkerFailed);
    std::remove(path.c_str());
}

TEST(FaultInjection, ThrowDuringHeaderReadFailsConstructionCleanly)
{
    const std::string path = tmpPath("cac_fi_throw_hdr.trc");
    writeTrace(randomTrace(100, 34), path, TraceFormat::V2, 100);

    TraceReaderOptions opts = withPolicy(ReadPolicy::Strict);
    FaultInjector::Spec spec;
    spec.throwAfterReads = 1; // the first read is the header
    opts.inject = spec;

    TraceReader reader(path, opts);
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.errorInfo().code, ErrorCode::WorkerFailed);
    std::remove(path.c_str());
}

// ---- spec parsing ----------------------------------------------------

TEST(FaultInjection, ParseSpecRoundTripsEveryKey)
{
    std::string error;
    auto spec = FaultInjector::parseSpec(
        "seed=42,flip=1e-6,short=0.25,fail=0.5,burst=3,lat=50,throw=9",
        &error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(spec->seed, 42u);
    EXPECT_DOUBLE_EQ(spec->flipPerByte, 1e-6);
    EXPECT_DOUBLE_EQ(spec->shortReadProb, 0.25);
    EXPECT_DOUBLE_EQ(spec->transientProb, 0.5);
    EXPECT_EQ(spec->transientBurst, 3u);
    EXPECT_EQ(spec->latencyUs, 50u);
    EXPECT_EQ(spec->throwAfterReads, 9u);
}

TEST(FaultInjection, ParseSpecRejectsMalformedInput)
{
    std::string error;
    EXPECT_FALSE(FaultInjector::parseSpec("bogus=1", &error));
    EXPECT_NE(error.find("unknown inject key"), std::string::npos)
        << error;
    EXPECT_FALSE(FaultInjector::parseSpec("flip", &error));
    EXPECT_NE(error.find("key=value"), std::string::npos) << error;
    EXPECT_FALSE(FaultInjector::parseSpec("flip=notanumber", &error));
    EXPECT_NE(error.find("bad value"), std::string::npos) << error;
}

} // anonymous namespace
} // namespace cac
