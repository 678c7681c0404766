/**
 * @file
 * Binary trace file I/O: the CACTRC01/CACTRC02 formats, whole-file
 * load/store, and chunked streaming replay with integrity checking and
 * recovery policies.
 *
 * Two container revisions share one reader (docs/TRACE_FORMAT.md has
 * the normative layouts):
 *
 *  - CACTRC01 (legacy): 8-byte magic + little-endian 64-bit record
 *    count, then bare packed 24-byte records. No checksums — a flipped
 *    payload bit is undetectable (only out-of-range opcode bytes are
 *    caught), so V1 is read-compatible but no longer written by
 *    default.
 *  - CACTRC02 (default): a 24-byte file header (magic, record count,
 *    records per chunk, header CRC32C) followed by framed chunks, each
 *    carrying a "CACK" magic, sequence number, record count, payload
 *    CRC32C and header CRC32C. Every payload bit is covered, chunk
 *    offsets are computable (fixed chunking, so sharded replay can
 *    seek), and the per-chunk magic gives resync a landmark after
 *    structural damage.
 *
 * Failures surface as structured cac::Error values (code + byte
 * offset + chunk index), and the reader supports three recovery
 * policies (ReadPolicy): strict fails fast at the damage, skip
 * quarantines the bad chunk and keeps exact dropped-record totals,
 * resync additionally scans forward for the next valid chunk header
 * when the framing itself is broken. Degraded reads are never silent:
 * readStats() reports every dropped record.
 *
 * Two read paths share the decoder:
 *  - readTrace()/tryReadTrace() materialize the whole trace in memory;
 *  - TraceReader streams the file in bounded chunks (the engine's
 *    streaming workloads and `cac_sim --stream` run on it).
 *
 * Inside TraceReader there is one producer: the chunk decoder throws
 * CacError at the damage, and one containment step turns that — or
 * any foreign exception — into the reader's error state, never
 * std::terminate. Both delivery modes run that same contained
 * producer: synchronously inside next(), or on a prefetch thread that
 * double-buffers the next chunk and re-surfaces its error on the
 * consumer.
 *
 * For chaos testing, TraceReaderOptions can mount a deterministic
 * FaultInjector (trace/fault_injector.hh) under the reader's I/O:
 * transient failures are retried with exponential backoff, corruption
 * is caught by the checksums, and injected exceptions exercise the
 * containment paths.
 */

#ifndef CAC_TRACE_IO_HH
#define CAC_TRACE_IO_HH

#include <condition_variable>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hh"
#include "trace/fault_injector.hh"
#include "trace/record.hh"

namespace cac
{

/** Container revision to write (readers auto-detect from the magic). */
enum class TraceFormat
{
    V1, ///< CACTRC01: bare records, no integrity protection
    V2  ///< CACTRC02: framed chunks with CRC32C (the default)
};

/** How the reader responds to damage it detects mid-stream. */
enum class ReadPolicy
{
    /** Fail fast with a precise byte/chunk location (the default). */
    Strict,
    /**
     * Quarantine the damaged chunk, count its records as dropped, and
     * continue at the next computed chunk offset. Structural damage
     * that breaks the fixed chunk stride ends the stream with the
     * remainder counted as dropped.
     */
    Skip,
    /**
     * Like Skip, but after a corrupt chunk header scan forward for the
     * next valid "CACK" chunk header and resume there, accounting the
     * gap exactly via the chunk sequence numbers.
     */
    Resync
};

/** Degradation totals a (non-strict) read accumulated. */
struct ReadStats
{
    std::uint64_t droppedRecords = 0; ///< records not delivered
    std::uint64_t droppedChunks = 0;  ///< chunks quarantined
    std::uint64_t crcErrors = 0;      ///< payload checksum mismatches
    std::uint64_t resyncs = 0;        ///< successful forward scans
    std::uint64_t retries = 0;        ///< transient-read retries

    /** True when any record failed to arrive intact. */
    bool degraded() const
    {
        return droppedRecords != 0 || droppedChunks != 0
               || crcErrors != 0;
    }
};

/** Default records per chunk (matches the accessBatch run size). */
constexpr std::size_t kDefaultTraceChunkRecords = 4096;

/**
 * Read-ahead mode: whether a helper thread decodes the next chunk
 * while the caller consumes the current one (double buffering, so
 * disk read + decode overlap simulation). Auto enables it exactly
 * when the machine has more than one hardware thread — on a single
 * core the helper would only add context switches.
 */
enum class Prefetch
{
    Auto,
    Off,
    On
};

/** Everything configurable about a TraceReader. */
struct TraceReaderOptions
{
    /** Records delivered per next() call (>= 1). */
    std::size_t chunkRecords = kDefaultTraceChunkRecords;

    Prefetch prefetch = Prefetch::Auto;

    ReadPolicy policy = ReadPolicy::Strict;

    /**
     * Verify CACTRC02 payload checksums (on by default; the structural
     * header checks always run). The perf harness measures verified vs
     * unverified replay through this switch.
     */
    bool verifyChecksums = true;

    /** Mount a deterministic fault injector under the reader's I/O. */
    std::optional<FaultInjector::Spec> inject = std::nullopt;
};

/**
 * Serialize @p trace to @p path. Fatal on I/O failure.
 *
 * @param format container revision (default CACTRC02).
 * @param chunk_records CACTRC02 chunk size (>= 1; ignored for V1).
 */
void writeTrace(const Trace &trace, const std::string &path,
                TraceFormat format = TraceFormat::V2,
                std::size_t chunk_records = kDefaultTraceChunkRecords);

/**
 * Deserialize a trace from @p path under @p options (policy, checksum
 * verification, fault injection). Fatal on I/O or format failure;
 * non-strict policies report drops via @p stats instead of failing on
 * recoverable damage.
 */
Trace readTrace(const std::string &path,
                const TraceReaderOptions &options = TraceReaderOptions{},
                ReadStats *stats = nullptr);

/**
 * Deserialize a trace from @p path without exiting on failure.
 *
 * @param out receives the records (cleared first).
 * @param error receives the structured failure — malformed or
 *        truncated files name the failing record and byte offsets.
 * @param stats receives the drop totals (non-strict policies).
 * @return true on success.
 */
bool tryReadTrace(const std::string &path, Trace &out, Error &error,
                  const TraceReaderOptions &options = TraceReaderOptions{},
                  ReadStats *stats = nullptr);

/**
 * Chunked reader over a CACTRC01/CACTRC02 file.
 *
 * The reader holds one chunk of decoded records at a time, so its
 * memory footprint is bounded by the chunk size regardless of the
 * trace length. Construction validates the header; errors (unopenable
 * file, bad magic, truncation, checksum mismatch under the strict
 * policy) park the reader in a failed state readable via
 * ok()/error()/errorInfo() instead of exiting, so drivers can report
 * them cleanly. Under Skip/Resync the reader keeps delivering what it
 * can and accounts every lost record in readStats().
 *
 * Typical replay loop (drivers feeding a SimTarget should use
 * replayAll() in core/sim_target.hh, which wraps exactly this):
 * @code
 *   TraceReader reader(path);
 *   if (!reader.ok())
 *       fatal("%s", reader.error().c_str());
 *   while (true) {
 *       const std::vector<TraceRecord> &chunk = reader.next();
 *       if (chunk.empty())
 *           break;
 *       consume(chunk.data(), chunk.size());
 *   }
 *   if (!reader.ok()) // damage discovered mid-stream
 *       fatal("%s", reader.error().c_str());
 * @endcode
 *
 * CACTRC02 chunking note: next() returns at most chunkRecords()
 * records per call. When the file's own chunk size differs from the
 * requested one the reader re-chunks through an internal staging
 * buffer; when they match (the default everywhere), decoded chunks
 * hand over without copying.
 */
class TraceReader
{
  public:
    /**
     * Open @p path and validate the header. Check ok() afterwards.
     *
     * @param chunk_records records decoded per next() call (>= 1).
     * @param prefetch read-ahead mode (see Prefetch).
     */
    explicit TraceReader(
        const std::string &path,
        std::size_t chunk_records = kDefaultTraceChunkRecords,
        Prefetch prefetch = Prefetch::Auto);

    /** Open @p path with full options (policy, injection, ...). */
    TraceReader(const std::string &path,
                const TraceReaderOptions &options);

    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /** False after any open/format/integrity error. */
    bool ok() const { return error_.ok(); }

    /** Failure description (empty while ok()). */
    const std::string &error() const { return error_text_; }

    /** Structured failure (code None while ok()). */
    const Error &errorInfo() const { return error_; }

    const std::string &path() const { return path_; }

    /** Container revision detected from the magic. */
    TraceFormat format() const { return format_; }

    /** Records the header promises (0 until a valid header was read). */
    std::uint64_t recordCount() const { return record_count_; }

    std::size_t chunkRecords() const { return chunk_records_; }

    /** The file's own chunk size (CACTRC02; 0 for V1). */
    std::uint64_t fileChunkRecords() const { return file_chunk_records_; }

    /** Records handed out by next() since construction or rewind(). */
    std::uint64_t recordsRead() const { return delivered_; }

    /**
     * Degradation totals so far (drops, checksum errors, retries).
     * Exact once the stream has ended: delivered + droppedRecords ==
     * recordCount() for a non-strict read of a damaged file.
     */
    const ReadStats &readStats() const { return stats_; }

    /** The mounted fault injector (null unless options.inject). */
    const FaultInjector *injector() const { return injector_.get(); }

    /**
     * Decode the next chunk into the internal buffer and return it.
     * Empty at end of trace and after any error; under the strict
     * policy, damage mid-file sets error() (with byte offsets) and
     * discards the partial chunk. Never throws — decoder, worker and
     * injected exceptions are contained and converted to the error
     * state.
     */
    const std::vector<TraceRecord> &next();

    /** Seek back to the first record (no-op in the failed state). */
    void rewind();

    /**
     * Position the stream at record @p record (clamped to
     * recordCount()); the next next() decodes from there. The sharded
     * replay engine opens one reader per shard and seeks it to the
     * shard's warm-up window. Does not reset recordsRead().
     *
     * @return true on success; a seek failure enters the failed state.
     */
    bool seekTo(std::uint64_t record);

  private:
    /** Helper-thread handoff slot (one decoded chunk + stream state). */
    struct PrefetchState
    {
        std::thread worker;
        std::mutex m;
        std::condition_variable canProduce;
        std::condition_variable canConsume;
        std::vector<TraceRecord> slot;
        Error error;     ///< failure found by the producer
        ReadStats stats; ///< producer's running totals
        bool slotFull = false;
        bool eof = false;  ///< producer finished (cleanly or not)
        bool stop = false; ///< consumer asked the producer to exit
    };

    /** Enter the failed state; returns false. */
    bool fail(Error err);

    /** An Error whose diagnostic is "'<path>': @p what". */
    Error errorAt(ErrorCode code, const std::string &what,
                  std::uint64_t byte_offset = kNoOffset,
                  std::uint64_t chunk_index = kNoOffset) const;

    /**
     * Run one reader step (header parse or chunk decode) with every
     * failure contained: a CacError comes back as its Error, any other
     * exception as WorkerFailed naming @p what ("header read",
     * "prefetch worker", "trace read") and the current byte offset.
     * The one boundary between the throwing decoder and the error
     * state. Returns a None Error when the step completed.
     */
    template <typename Step>
    Error contain(const char *what, Step &&step);

    /** Parse + validate the file header (both formats); throws. */
    void readHeader();

    /**
     * Read @p want header bytes. Throws ReadFailed when the retry
     * budget runs out, and Truncated ("file ends before the
     * @p truncated_before") on a short read; with a null
     * @p truncated_before a short read just returns false.
     */
    bool readHeaderBytes(std::uint8_t *dst, std::size_t want,
                         const char *truncated_before);

    /**
     * Read exactly @p want bytes (resuming short reads), retrying
     * transient failures with exponential backoff. Returns the bytes
     * obtained; sets @p failed when the retry budget was exhausted.
     * Advances byte_pos_. Injected foreign exceptions propagate
     * (contain() catches them).
     */
    std::size_t rawRead(void *dst, std::size_t want, bool &failed,
                        ReadStats &stats);

    /**
     * The producer: decode the next consumer chunk into @p out (empty
     * at end of trace). Throws CacError on a strict-policy failure;
     * non-strict policies account drops in @p stats instead. Touches
     * the stream state — in prefetch mode only the helper thread calls
     * this.
     */
    void decodeNextChunk(std::vector<TraceRecord> &out,
                         ReadStats &stats);

    /** V1: bare record array. */
    void decodeChunkV1(std::vector<TraceRecord> &out, ReadStats &stats);

    /** V2: decode the next whole file chunk (validating checksums). */
    void decodeFileChunkV2(std::vector<TraceRecord> &out,
                           ReadStats &stats);

    /**
     * Account the chunks before @p seq that the cursor skipped as
     * dropped, and move the cursor to @p seq. Every skipped chunk is a
     * full one: only the file's last chunk may be partial, and it
     * cannot lie inside a gap.
     */
    void dropChunksBefore(std::uint64_t seq, ReadStats &stats);

    /**
     * Resync scan: search forward from @p from for the next valid
     * chunk header with sequence in [next_chunk_, num_chunks_).
     * Repositions the stream and reports the found sequence on
     * success.
     */
    bool resyncScan(std::uint64_t from, std::uint64_t &found_seq,
                    ReadStats &stats);

    /** Expected record count of V2 chunk @p seq. */
    std::uint32_t expectedCount(std::uint64_t seq) const;

    /** Computed byte offset of V2 chunk @p seq. */
    std::uint64_t chunkOffsetV2(std::uint64_t seq) const;

    /** Start the helper thread if enabled and not yet running. */
    void startPrefetcher();

    /** Stop and join the helper thread; safe to call repeatedly. */
    void stopPrefetcher();

    /**
     * Prefetch mode: move the helper's next chunk into buffer_ (empty
     * once it finished) and return its failure, if any.
     */
    Error takePrefetched();

    std::string path_;
    TraceReaderOptions opts_;
    std::size_t chunk_records_;
    bool prefetch_enabled_ = false;
    std::FILE *file_ = nullptr;
    TraceFormat format_ = TraceFormat::V1;
    std::uint64_t record_count_ = 0;

    // V1 stream cursor.
    std::uint64_t next_record_ = 0;

    // V2 stream cursor.
    std::uint64_t file_chunk_records_ = 0; ///< C from the file header
    std::uint64_t num_chunks_ = 0;
    std::uint64_t next_chunk_ = 0;
    std::uint64_t byte_pos_ = 0;     ///< current file offset
    std::uint64_t skip_records_ = 0; ///< seekTo() intra-chunk discard

    std::uint64_t delivered_ = 0;
    std::vector<TraceRecord> buffer_;
    std::vector<TraceRecord> staging_; ///< V2 re-chunking buffer
    std::size_t staging_pos_ = 0;
    std::vector<std::uint8_t> raw_;
    Error error_;
    std::string error_text_;
    ReadStats stats_;
    std::unique_ptr<FaultInjector> injector_;
    std::unique_ptr<PrefetchState> prefetch_;
};

} // namespace cac

#endif // CAC_TRACE_IO_HH
