#include "trace/io.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <limits>
#include <utility>

#include "common/crc32c.hh"
#include "common/logging.hh"
#include "obs/obs.hh"

namespace cac
{

namespace
{

constexpr char kMagicV1[8] = {'C', 'A', 'C', 'T', 'R', 'C', '0', '1'};
constexpr char kMagicV2[8] = {'C', 'A', 'C', 'T', 'R', 'C', '0', '2'};
constexpr char kChunkMagic[4] = {'C', 'A', 'C', 'K'};
constexpr std::size_t kHeaderBytesV1 = 16;
constexpr std::size_t kHeaderBytesV2 = 24;
constexpr std::size_t kChunkHeaderBytes = 20;

/** Transient-read retry budget and backoff base (doubles per retry). */
constexpr unsigned kMaxRetries = 5;
constexpr unsigned kRetryBackoffUs = 100;

/** Resync scan block size (the scan window stays this bounded). */
constexpr std::size_t kResyncBlock = 65536;

/**
 * Sanity cap on a CACTRC02 chunk size: 16M records, 384 MiB on disk
 * and 256 MiB once decoded into 16-byte TraceRecords.
 */
constexpr std::uint64_t kMaxFileChunkRecords = 1u << 24;

constexpr std::uint8_t kMaxOp =
    static_cast<std::uint8_t>(OpClass::Branch);

/** On-disk record: fixed 24-byte layout independent of host padding. */
struct PackedRecord
{
    std::uint8_t op;
    std::int8_t dst;
    std::int8_t src1;
    std::int8_t src2;
    std::uint8_t taken;
    std::uint8_t pad[3];
    std::uint64_t addr;
    std::uint32_t pc;
    std::uint8_t pad2[4];
};

static_assert(sizeof(PackedRecord) == 24, "trace record layout drifted");

TraceRecord
unpack(const PackedRecord &p)
{
    TraceRecord rec;
    rec.op = static_cast<OpClass>(p.op);
    rec.dst = p.dst;
    rec.src1 = p.src1;
    rec.src2 = p.src2;
    rec.taken = p.taken != 0;
    rec.addr = p.addr;
    rec.pc = p.pc;
    return rec;
}

/**
 * Unpack @p count on-disk records at @p in into @p out (resized to the
 * survivors) — the one decode loop both containers share. A record
 * with an out-of-range opcode throws @p bad_record(i, op) under the
 * strict policy and is dropped (and counted) otherwise.
 */
template <typename BadRecord>
[[gnu::always_inline]] inline void
unpackRecords(const std::uint8_t *in, std::size_t count,
              std::vector<TraceRecord> &out, ReadPolicy policy,
              ReadStats &stats, BadRecord &&bad_record)
{
    // Direct indexed writes (resize once, no per-record push_back
    // bookkeeping): this loop runs on the replay hot path.
    out.resize(count);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < count; ++i, in += sizeof(PackedRecord)) {
        PackedRecord p;
        std::memcpy(&p, in, sizeof(PackedRecord));
        if (p.op > kMaxOp) {
            if (policy == ReadPolicy::Strict)
                throw CacError(bad_record(i, p.op));
            ++stats.droppedRecords;
            continue;
        }
        out[kept++] = unpack(p);
    }
    out.resize(kept);
}

PackedRecord
pack(const TraceRecord &rec)
{
    PackedRecord p{};
    p.op = static_cast<std::uint8_t>(rec.op);
    p.dst = rec.dst;
    p.src1 = rec.src1;
    p.src2 = rec.src2;
    p.taken = rec.taken ? 1 : 0;
    p.addr = rec.addr;
    p.pc = rec.pc;
    return p;
}

/** Byte offset of record @p index in a CACTRC01 file. */
std::uint64_t
recordOffset(std::uint64_t index)
{
    return kHeaderBytesV1 + index * sizeof(PackedRecord);
}

/**
 * recordOffset(@p count) as text for diagnostics. A lying header can
 * claim more records than 64-bit byte offsets reach; say so rather
 * than print the wrapped value.
 */
std::string
expectedBytesText(std::uint64_t count)
{
    constexpr std::uint64_t kMaxCount =
        (std::numeric_limits<std::uint64_t>::max() - kHeaderBytesV1)
        / sizeof(PackedRecord);
    return count <= kMaxCount ? std::to_string(recordOffset(count))
                              : std::string("more than 2^64");
}

std::uint32_t
loadLE32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0])
           | static_cast<std::uint32_t>(p[1]) << 8
           | static_cast<std::uint32_t>(p[2]) << 16
           | static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t
loadLE64(const std::uint8_t *p)
{
    return static_cast<std::uint64_t>(loadLE32(p))
           | static_cast<std::uint64_t>(loadLE32(p + 4)) << 32;
}

void
storeLE32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v >> 16);
    p[3] = static_cast<std::uint8_t>(v >> 24);
}

void
storeLE64(std::uint8_t *p, std::uint64_t v)
{
    storeLE32(p, static_cast<std::uint32_t>(v));
    storeLE32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

void
backoffSleep(unsigned attempt)
{
    std::this_thread::sleep_for(std::chrono::microseconds(
        kRetryBackoffUs << (attempt > 0 ? attempt - 1 : 0)));
}

/** backoffSleep() plus the fault-injector retry telemetry. */
void
instrumentedBackoff(unsigned attempt)
{
    if (obs::Registry::global().enabled()) {
        static const obs::Counter retries =
            obs::Registry::global().counter("trace.retries");
        retries.add(1);
    }
    CAC_OBS_SPAN("trace", "trace.retry_backoff");
    backoffSleep(attempt);
}

void
writeTraceV1(const Trace &trace, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        fatal("cannot open '%s' for writing", path.c_str());

    std::uint64_t count = trace.size();
    if (std::fwrite(kMagicV1, sizeof(kMagicV1), 1, f) != 1
        || std::fwrite(&count, sizeof(count), 1, f) != 1) {
        std::fclose(f);
        fatal("short write to '%s'", path.c_str());
    }

    for (const auto &rec : trace) {
        const PackedRecord p = pack(rec);
        if (std::fwrite(&p, sizeof(p), 1, f) != 1) {
            std::fclose(f);
            fatal("short write to '%s'", path.c_str());
        }
    }
    std::fclose(f);
}

void
writeTraceV2(const Trace &trace, const std::string &path,
             std::size_t chunk_records)
{
    const std::uint64_t chunk =
        std::min<std::uint64_t>(chunk_records > 0 ? chunk_records : 1,
                                kMaxFileChunkRecords);

    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        fatal("cannot open '%s' for writing", path.c_str());

    std::uint8_t header[kHeaderBytesV2];
    std::memcpy(header, kMagicV2, 8);
    storeLE64(header + 8, trace.size());
    storeLE32(header + 16, static_cast<std::uint32_t>(chunk));
    storeLE32(header + 20, crc32c(header, 20));
    if (std::fwrite(header, sizeof(header), 1, f) != 1) {
        std::fclose(f);
        fatal("short write to '%s'", path.c_str());
    }

    std::vector<std::uint8_t> payload;
    payload.resize(static_cast<std::size_t>(chunk)
                   * sizeof(PackedRecord));
    std::uint32_t seq = 0;
    for (std::uint64_t start = 0; start < trace.size();
         start += chunk, ++seq) {
        const std::uint32_t count = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(chunk, trace.size() - start));
        std::uint8_t *out = payload.data();
        for (std::uint32_t i = 0; i < count;
             ++i, out += sizeof(PackedRecord)) {
            const PackedRecord p = pack(trace[start + i]);
            std::memcpy(out, &p, sizeof(PackedRecord));
        }
        const std::size_t bytes = count * sizeof(PackedRecord);

        std::uint8_t chunk_header[kChunkHeaderBytes];
        std::memcpy(chunk_header, kChunkMagic, 4);
        storeLE32(chunk_header + 4, seq);
        storeLE32(chunk_header + 8, count);
        storeLE32(chunk_header + 12, crc32c(payload.data(), bytes));
        storeLE32(chunk_header + 16, crc32c(chunk_header, 16));

        if (std::fwrite(chunk_header, sizeof(chunk_header), 1, f) != 1
            || std::fwrite(payload.data(), 1, bytes, f) != bytes) {
            std::fclose(f);
            fatal("short write to '%s'", path.c_str());
        }
    }
    std::fclose(f);
}

} // anonymous namespace

void
writeTrace(const Trace &trace, const std::string &path,
           TraceFormat format, std::size_t chunk_records)
{
    if (format == TraceFormat::V1)
        writeTraceV1(trace, path);
    else
        writeTraceV2(trace, path, chunk_records);
}

TraceReader::TraceReader(const std::string &path,
                         std::size_t chunk_records, Prefetch prefetch)
    : TraceReader(path, TraceReaderOptions{.chunkRecords = chunk_records,
                                           .prefetch = prefetch})
{}

TraceReader::TraceReader(const std::string &path,
                         const TraceReaderOptions &options)
    : path_(path), opts_(options),
      chunk_records_(options.chunkRecords > 0 ? options.chunkRecords
                                              : 1),
      prefetch_enabled_(options.prefetch == Prefetch::Auto
                            ? std::thread::hardware_concurrency() > 1
                            : options.prefetch == Prefetch::On)
{
    if (opts_.inject)
        injector_ = std::make_unique<FaultInjector>(*opts_.inject);

    buffer_.reserve(chunk_records_);

    file_ = std::fopen(path_.c_str(), "rb");
    if (!file_) {
        fail(Error::make(ErrorCode::OpenFailed,
                         "cannot open '" + path_ + "' for reading",
                         path_));
        return;
    }

    // Header-time failures (including injected ones) are contained the
    // same way mid-stream failures are: as an error state, never an
    // escaping exception.
    if (Error err = contain("header read", [this] { readHeader(); }))
        fail(std::move(err));
}

TraceReader::~TraceReader()
{
    stopPrefetcher();
    if (file_)
        std::fclose(file_);
}

bool
TraceReader::fail(Error err)
{
    error_ = std::move(err);
    error_text_ = error_.message();
    buffer_.clear();
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
    return false;
}

Error
TraceReader::errorAt(ErrorCode code, const std::string &what,
                     std::uint64_t byte_offset,
                     std::uint64_t chunk_index) const
{
    return Error::make(code, "'" + path_ + "': " + what, path_,
                       byte_offset, chunk_index);
}

template <typename Step>
Error
TraceReader::contain(const char *what, Step &&step)
{
    try {
        step();
        return Error{};
    } catch (const CacError &e) {
        return e.err();
    } catch (const std::exception &e) {
        return errorAt(ErrorCode::WorkerFailed,
                       std::string(what) + " failed: " + e.what(),
                       byte_pos_);
    } catch (...) {
        return errorAt(ErrorCode::WorkerFailed,
                       std::string(what)
                           + " failed with an unknown exception",
                       byte_pos_);
    }
}

bool
TraceReader::readHeaderBytes(std::uint8_t *dst, std::size_t want,
                             const char *truncated_before)
{
    bool rfail = false;
    const std::size_t got = rawRead(dst, want, rfail, stats_);
    if (rfail) {
        throw CacError(errorAt(ErrorCode::ReadFailed,
                               "read failed reading the header (retry "
                               "budget exhausted)",
                               byte_pos_));
    }
    if (got < want && truncated_before != nullptr) {
        throw CacError(errorAt(ErrorCode::Truncated,
                               std::string("truncated header (file ends "
                                           "before the ")
                                   + truncated_before + ")",
                               byte_pos_));
    }
    return got == want;
}

void
TraceReader::readHeader()
{
    std::uint8_t header[kHeaderBytesV2];
    if (!readHeaderBytes(header, 8, nullptr)
        || (std::memcmp(header, kMagicV1, 8) != 0
            && std::memcmp(header, kMagicV2, 8) != 0)) {
        throw CacError(Error::make(
            ErrorCode::BadMagic,
            "'" + path_ + "' is not a CACTRC01/02 trace", path_, 0));
    }

    if (std::memcmp(header, kMagicV1, 8) == 0) {
        format_ = TraceFormat::V1;
        readHeaderBytes(header + 8, 8, "16-byte magic + count");
        record_count_ = loadLE64(header + 8);
        raw_.resize(chunk_records_ * sizeof(PackedRecord));
        return;
    }

    format_ = TraceFormat::V2;
    readHeaderBytes(header + 8, kHeaderBytesV2 - 8,
                    "24-byte CACTRC02 header");
    if (crc32c(header, 20) != loadLE32(header + 20)) {
        throw CacError(errorAt(ErrorCode::BadFileHeader,
                               "CACTRC02 file header checksum mismatch",
                               0));
    }
    const std::uint64_t count = loadLE64(header + 8);
    const std::uint32_t chunk = loadLE32(header + 16);
    if (chunk == 0 || chunk > kMaxFileChunkRecords) {
        throw CacError(errorAt(ErrorCode::BadFileHeader,
                               "CACTRC02 chunk size "
                                   + std::to_string(chunk)
                                   + " out of range",
                               16));
    }
    record_count_ = count;
    file_chunk_records_ = chunk;
    num_chunks_ = (count + chunk - 1) / chunk;
}

std::size_t
TraceReader::rawRead(void *dst, std::size_t want, bool &failed,
                     ReadStats &stats)
{
    failed = false;
    auto *out = static_cast<std::uint8_t *>(dst);
    std::size_t got = 0;
    unsigned attempts = 0;
    while (got < want) {
        std::size_t r = 0;
        bool transient = false;
        try {
            r = injector_
                    ? injector_->read(file_, out + got, want - got)
                    : std::fread(out + got, 1, want - got, file_);
        } catch (const TransientIoError &) {
            transient = true;
        }
        if (!transient && r == 0) {
            if (!std::ferror(file_))
                break; // true end of file
            transient = true;
        }
        if (transient) {
            // Retryable: bounded retries with exponential backoff.
            if (attempts >= kMaxRetries) {
                failed = true;
                break;
            }
            ++attempts;
            ++stats.retries;
            std::clearerr(file_);
            instrumentedBackoff(attempts);
            continue;
        }
        got += r;
    }
    byte_pos_ += got;
    return got;
}

void
TraceReader::decodeChunkV1(std::vector<TraceRecord> &out,
                           ReadStats &stats)
{
    out.clear();
    while (next_record_ < record_count_) {
        const std::uint64_t remaining = record_count_ - next_record_;
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(chunk_records_, remaining));
        if (raw_.size() < want * sizeof(PackedRecord))
            raw_.resize(want * sizeof(PackedRecord));

        bool rfail = false;
        const std::size_t got =
            rawRead(raw_.data(), want * sizeof(PackedRecord), rfail,
                    stats)
            / sizeof(PackedRecord);

        // Records with an out-of-range opcode are the only corruption
        // V1 can detect.
        unpackRecords(
            raw_.data(), got, out, opts_.policy, stats,
            [&](std::size_t i, unsigned op) {
                const std::uint64_t at = next_record_ + i;
                return errorAt(ErrorCode::BadRecord,
                               "record " + std::to_string(at)
                                   + " has invalid opcode "
                                   + std::to_string(op) + " (near byte "
                                   + std::to_string(recordOffset(at))
                                   + ")",
                               recordOffset(at), at / chunk_records_);
            });
        next_record_ += got;

        if (rfail || got < want) {
            // Short read: the header promised more records than the
            // file holds. Strict reports exactly where the data ran
            // out; Skip/Resync drop the missing tail and end cleanly.
            const std::uint64_t have = next_record_;
            if (opts_.policy == ReadPolicy::Strict) {
                throw CacError(
                    rfail ? errorAt(ErrorCode::ReadFailed,
                                    "read failed near byte "
                                        + std::to_string(byte_pos_)
                                        + " (retries exhausted)",
                                    byte_pos_)
                          : errorAt(ErrorCode::Truncated,
                                    "truncated at record "
                                        + std::to_string(have) + " of "
                                        + std::to_string(record_count_)
                                        + " (data ends near byte "
                                        + std::to_string(
                                            recordOffset(have))
                                        + ", expected "
                                        + expectedBytesText(
                                            record_count_)
                                        + " bytes)",
                                    recordOffset(have)));
            }
            stats.droppedRecords += record_count_ - have;
            next_record_ = record_count_;
            return;
        }
        if (!out.empty())
            return;
        // Every record in this chunk was dropped; decode the next one.
    }
}

std::uint32_t
TraceReader::expectedCount(std::uint64_t seq) const
{
    const std::uint64_t first = seq * file_chunk_records_;
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(
        file_chunk_records_, record_count_ - first));
}

std::uint64_t
TraceReader::chunkOffsetV2(std::uint64_t seq) const
{
    const std::uint64_t stride =
        kChunkHeaderBytes + file_chunk_records_ * sizeof(PackedRecord);
    return kHeaderBytesV2 + seq * stride;
}

void
TraceReader::dropChunksBefore(std::uint64_t seq, ReadStats &stats)
{
    if (seq <= next_chunk_)
        return;
    const std::uint64_t gap = seq - next_chunk_;
    stats.droppedChunks += gap;
    stats.droppedRecords += gap * file_chunk_records_;
    next_chunk_ = seq;
}

bool
TraceReader::resyncScan(std::uint64_t from, std::uint64_t &found_seq,
                        ReadStats &stats)
{
    // Recovery path: scan the raw file for the next plausible chunk
    // header (magic + header CRC + in-range sequence + matching
    // count), deliberately bypassing the fault injector so a scan
    // always terminates. Memory stays bounded by the block size.
    if (std::fseek(file_, static_cast<long>(from), SEEK_SET) != 0)
        return false;

    std::vector<std::uint8_t> win;
    std::uint64_t base = from;
    for (;;) {
        const std::size_t old = win.size();
        win.resize(old + kResyncBlock);
        const std::size_t r =
            std::fread(win.data() + old, 1, kResyncBlock, file_);
        win.resize(old + r);

        for (std::size_t i = 0;
             i + kChunkHeaderBytes <= win.size(); ++i) {
            const std::uint8_t *h = win.data() + i;
            if (std::memcmp(h, kChunkMagic, 4) != 0)
                continue;
            if (crc32c(h, 16) != loadLE32(h + 16))
                continue;
            const std::uint64_t seq = loadLE32(h + 4);
            const std::uint32_t count = loadLE32(h + 8);
            if (seq < next_chunk_ || seq >= num_chunks_
                || count != expectedCount(seq))
                continue;
            const std::uint64_t off = base + i;
            if (std::fseek(file_, static_cast<long>(off), SEEK_SET)
                != 0)
                return false;
            byte_pos_ = off;
            found_seq = seq;
            ++stats.resyncs;
            return true;
        }

        if (r == 0)
            return false; // end of file, nothing plausible ahead

        // Keep a header-sized tail so candidates straddling block
        // boundaries are still seen (re-checking them is harmless).
        if (win.size() > kChunkHeaderBytes - 1) {
            const std::size_t drop =
                win.size() - (kChunkHeaderBytes - 1);
            win.erase(win.begin(),
                      win.begin() + static_cast<std::ptrdiff_t>(drop));
            base += drop;
        }
    }
}

void
TraceReader::decodeFileChunkV2(std::vector<TraceRecord> &out,
                               ReadStats &stats)
{
    out.clear();
    while (next_chunk_ < num_chunks_) {
        const std::uint64_t chunk_off = byte_pos_;
        std::uint8_t header[kChunkHeaderBytes];
        bool rfail = false;
        std::size_t got =
            rawRead(header, kChunkHeaderBytes, rfail, stats);

        ErrorCode damage = ErrorCode::None;
        std::string what;
        std::uint64_t seq = next_chunk_;
        std::uint32_t count = 0;
        std::uint32_t payload_crc = 0;

        if (rfail) {
            damage = ErrorCode::ReadFailed;
            what = "read failed (retries exhausted)";
        } else if (got < kChunkHeaderBytes) {
            damage = ErrorCode::Truncated;
            what = "file ends inside the chunk header";
        } else if (std::memcmp(header, kChunkMagic, 4) != 0) {
            damage = ErrorCode::BadChunkHeader;
            what = "chunk magic missing";
        } else if (crc32c(header, 16) != loadLE32(header + 16)) {
            damage = ErrorCode::BadChunkHeader;
            what = "chunk header checksum mismatch";
        } else {
            seq = loadLE32(header + 4);
            count = loadLE32(header + 8);
            payload_crc = loadLE32(header + 12);
            if (seq < next_chunk_ || seq >= num_chunks_
                || count != expectedCount(seq)) {
                damage = ErrorCode::BadChunkHeader;
                what = "chunk header fields out of sequence";
                seq = next_chunk_;
            }
        }

        if (damage == ErrorCode::None && seq > next_chunk_) {
            // A later chunk where an earlier one should be: bytes were
            // lost. Strict refuses; Skip/Resync account the gap.
            if (opts_.policy == ReadPolicy::Strict) {
                damage = ErrorCode::BadChunkHeader;
                what = "chunk sequence jumped from "
                       + std::to_string(next_chunk_) + " to "
                       + std::to_string(seq);
                seq = next_chunk_;
            } else {
                dropChunksBefore(seq, stats);
            }
        }

        if (damage == ErrorCode::None) {
            const std::size_t payload =
                static_cast<std::size_t>(count) * sizeof(PackedRecord);
            if (raw_.size() < payload)
                raw_.resize(payload);
            rfail = false;
            got = rawRead(raw_.data(), payload, rfail, stats);
            bool crc_mismatch = false;
            if (!rfail && got >= payload && opts_.verifyChecksums) {
                CAC_OBS_SPAN("trace", "trace.crc");
                crc_mismatch =
                    crc32c(raw_.data(), payload) != payload_crc;
            }
            if (rfail) {
                damage = ErrorCode::ReadFailed;
                what = "read failed in the chunk payload (retries "
                       "exhausted)";
            } else if (got < payload) {
                damage = ErrorCode::Truncated;
                what = "file ends inside the chunk payload";
            } else if (crc_mismatch) {
                ++stats.crcErrors;
                damage = ErrorCode::ChecksumMismatch;
                what = "chunk payload checksum mismatch";
            } else {
                // CRC-valid but semantically invalid records come from
                // a buggy producer, not storage damage.
                unpackRecords(
                    raw_.data(), count, out, opts_.policy, stats,
                    [&](std::size_t i, unsigned op) {
                        const std::uint64_t at =
                            chunk_off + kChunkHeaderBytes
                            + i * sizeof(PackedRecord);
                        return errorAt(
                            ErrorCode::BadRecord,
                            "chunk " + std::to_string(seq) + " record "
                                + std::to_string(i)
                                + " has invalid opcode "
                                + std::to_string(op) + " (near byte "
                                + std::to_string(at) + ")",
                            at, seq);
                    });
                next_chunk_ = seq + 1;
                if (!out.empty())
                    return;
                continue; // chunk fully dropped; decode the next one
            }
        }

        // --- Damage handling, per policy ---
        if (opts_.policy == ReadPolicy::Strict) {
            throw CacError(errorAt(
                damage,
                "chunk " + std::to_string(next_chunk_) + " of "
                    + std::to_string(num_chunks_) + ": " + what
                    + " (near byte " + std::to_string(chunk_off) + ")",
                chunk_off, next_chunk_));
        }

        // Quarantine the chunk the cursor is on.
        ++stats.droppedChunks;
        stats.droppedRecords += expectedCount(next_chunk_);
        ++next_chunk_;
        if (next_chunk_ >= num_chunks_)
            return;

        if (damage == ErrorCode::ChecksumMismatch) {
            // Framing intact: the payload was fully consumed, so the
            // cursor already sits on the next chunk header.
            continue;
        }

        // Truncated means the file ends inside this chunk, so every
        // later chunk lies past the end: drop them in one step rather
        // than one failed read each (a lying header can promise 2^50
        // chunks).
        const bool at_end = damage == ErrorCode::Truncated;
        if (at_end || opts_.policy == ReadPolicy::Resync) {
            std::uint64_t found = 0;
            if (!at_end && resyncScan(chunk_off + 1, found, stats)) {
                dropChunksBefore(found, stats);
                continue;
            }
            // Nothing readable ahead: the rest of the file is lost.
            stats.droppedChunks += num_chunks_ - next_chunk_;
            stats.droppedRecords +=
                record_count_ - next_chunk_ * file_chunk_records_;
            next_chunk_ = num_chunks_;
            return;
        }

        // Skip: the chunk stride is fixed, so the next chunk's offset
        // is computable without trusting the damaged header.
        const std::uint64_t off = chunkOffsetV2(next_chunk_);
        if (std::fseek(file_, static_cast<long>(off), SEEK_SET) != 0) {
            throw CacError(errorAt(ErrorCode::SeekFailed,
                                   "seek to chunk "
                                       + std::to_string(next_chunk_)
                                       + " failed",
                                   off, next_chunk_));
        }
        byte_pos_ = off;
    }
}

void
TraceReader::decodeNextChunk(std::vector<TraceRecord> &out,
                             ReadStats &stats)
{
    CAC_OBS_SPAN("trace", "trace.decode");
    if (format_ == TraceFormat::V1) {
        decodeChunkV1(out, stats);
        return;
    }

    out.clear();
    for (;;) {
        if (staging_pos_ < staging_.size()) {
            const std::size_t avail = staging_.size() - staging_pos_;
            if (staging_pos_ == 0 && avail <= chunk_records_) {
                // Whole-chunk handoff, no copy (the default path:
                // requested chunking == file chunking). staging_ gets
                // the cleared buffer back.
                out.swap(staging_);
            } else {
                const std::size_t take =
                    std::min(chunk_records_, avail);
                const auto from =
                    staging_.begin()
                    + static_cast<std::ptrdiff_t>(staging_pos_);
                out.assign(from,
                           from + static_cast<std::ptrdiff_t>(take));
                staging_pos_ += take;
            }
            return;
        }

        staging_.clear();
        staging_pos_ = 0;
        decodeFileChunkV2(staging_, stats);
        if (staging_.empty())
            return; // end of trace
        // seekTo() may have landed inside this chunk: discard the
        // prefix (all of it means decode the next chunk).
        staging_pos_ = static_cast<std::size_t>(
            std::min<std::uint64_t>(staging_.size(), skip_records_));
        skip_records_ = 0;
    }
}

void
TraceReader::startPrefetcher()
{
    if (prefetch_)
        return;
    prefetch_ = std::make_unique<PrefetchState>();
    PrefetchState &st = *prefetch_;
    st.worker = std::thread([this, &st] {
        // Double buffering: decode into a local chunk while the
        // consumer drains the slot, then hand it over. contain()
        // captures every exception, so this thread never lets one
        // escape and a poisoned trace can never std::terminate.
        std::vector<TraceRecord> local;
        local.reserve(chunk_records_);
        ReadStats totals;
        for (;;) {
            Error err = contain("prefetch worker", [&] {
                decodeNextChunk(local, totals);
            });
            std::unique_lock<std::mutex> lock(st.m);
            st.stats = totals;
            st.canProduce.wait(
                lock, [&] { return !st.slotFull || st.stop; });
            if (st.stop)
                return;
            if (err || local.empty()) {
                st.error = std::move(err);
                st.eof = true;
                st.canConsume.notify_all();
                return;
            }
            st.slot.swap(local);
            st.slotFull = true;
            st.canConsume.notify_all();
        }
    });
}

void
TraceReader::stopPrefetcher()
{
    if (!prefetch_)
        return;
    {
        std::lock_guard<std::mutex> lock(prefetch_->m);
        prefetch_->stop = true;
        prefetch_->slotFull = false;
        stats_ = prefetch_->stats;
    }
    prefetch_->canProduce.notify_all();
    if (prefetch_->worker.joinable())
        prefetch_->worker.join();
    prefetch_.reset();
}

Error
TraceReader::takePrefetched()
{
    startPrefetcher();
    PrefetchState &st = *prefetch_;
    std::unique_lock<std::mutex> lock(st.m);
    {
        // How long the replay thread stalls on the decode pipeline —
        // the handoff half of the prefetch double-buffer.
        CAC_OBS_SPAN("trace", "trace.prefetch_wait");
        st.canConsume.wait(lock, [&] { return st.slotFull || st.eof; });
    }
    stats_ = st.stats;
    buffer_.clear();
    if (!st.slotFull) {
        // Producer finished: surface its failure, if any, exactly once
        // the preceding complete chunks have been delivered.
        return std::exchange(st.error, Error{});
    }
    buffer_.swap(st.slot);
    st.slotFull = false;
    lock.unlock();
    st.canProduce.notify_one();
    return Error{};
}

const std::vector<TraceRecord> &
TraceReader::next()
{
    if (!ok()) {
        buffer_.clear();
        return buffer_;
    }
    Error err = prefetch_enabled_
                    ? takePrefetched()
                    : contain("trace read", [this] {
                          decodeNextChunk(buffer_, stats_);
                      });
    if (err) {
        fail(std::move(err));
        return buffer_;
    }
    delivered_ += buffer_.size();
    if (!buffer_.empty() && obs::Registry::global().enabled()) {
        static const obs::Counter chunks =
            obs::Registry::global().counter("trace.chunks_delivered");
        static const obs::Counter records =
            obs::Registry::global().counter("trace.records_delivered");
        chunks.add(1);
        records.add(buffer_.size());
    }
    return buffer_;
}

void
TraceReader::rewind()
{
    if (!ok())
        return;
    stopPrefetcher();
    const std::uint64_t off = format_ == TraceFormat::V2
                                  ? kHeaderBytesV2
                                  : kHeaderBytesV1;
    if (std::fseek(file_, static_cast<long>(off), SEEK_SET) != 0) {
        fail(errorAt(ErrorCode::SeekFailed, "seek failed during rewind"));
        return;
    }
    byte_pos_ = off;
    next_record_ = 0;
    next_chunk_ = 0;
    skip_records_ = 0;
    staging_.clear();
    staging_pos_ = 0;
    delivered_ = 0;
    buffer_.clear();
}

bool
TraceReader::seekTo(std::uint64_t record)
{
    if (!ok())
        return false;
    stopPrefetcher();
    if (record > record_count_)
        record = record_count_;
    staging_.clear();
    staging_pos_ = 0;
    skip_records_ = 0;
    buffer_.clear();

    if (format_ == TraceFormat::V1) {
        if (std::fseek(file_,
                       static_cast<long>(recordOffset(record)),
                       SEEK_SET)
            != 0) {
            return fail(errorAt(ErrorCode::SeekFailed,
                                "seek to record "
                                    + std::to_string(record)
                                    + " failed",
                                recordOffset(record)));
        }
        next_record_ = record;
        byte_pos_ = recordOffset(record);
        return true;
    }

    if (record >= record_count_) {
        next_chunk_ = num_chunks_;
        return true;
    }
    const std::uint64_t seq = record / file_chunk_records_;
    const std::uint64_t off = chunkOffsetV2(seq);
    if (std::fseek(file_, static_cast<long>(off), SEEK_SET) != 0) {
        return fail(errorAt(ErrorCode::SeekFailed,
                            "seek to record " + std::to_string(record)
                                + " failed",
                            off, seq));
    }
    byte_pos_ = off;
    next_chunk_ = seq;
    skip_records_ = record - seq * file_chunk_records_;
    return true;
}

bool
tryReadTrace(const std::string &path, Trace &out, Error &error,
             const TraceReaderOptions &options, ReadStats *stats)
{
    TraceReader reader(path, options);
    out.clear();
    if (!reader.ok()) {
        error = reader.errorInfo();
        return false;
    }
    // The header's count is untrusted: reserve no more records than
    // the file can hold, so a lying header ends in the reader's
    // Truncated error instead of a failed allocation.
    std::error_code size_error;
    const std::uintmax_t file_bytes =
        std::filesystem::file_size(path, size_error);
    out.reserve(static_cast<std::size_t>(std::min<std::uintmax_t>(
        reader.recordCount(),
        size_error ? 0 : file_bytes / sizeof(PackedRecord))));
    while (true) {
        const std::vector<TraceRecord> &chunk = reader.next();
        if (chunk.empty())
            break;
        out.insert(out.end(), chunk.begin(), chunk.end());
    }
    if (stats)
        *stats = reader.readStats();
    if (!reader.ok()) {
        error = reader.errorInfo();
        return false;
    }
    return true;
}

Trace
readTrace(const std::string &path, const TraceReaderOptions &options,
          ReadStats *stats)
{
    Trace trace;
    Error error;
    if (!tryReadTrace(path, trace, error, options, stats))
        fatal("%s", error.message().c_str());
    return trace;
}

} // namespace cac
