/**
 * @file
 * Structured error taxonomy for the replay pipeline.
 *
 * Every failure the trace/replay stack can hit — unopenable files,
 * truncation, checksum mismatches, corrupt chunk headers, exhausted
 * retries, poisoned workers, blown deadlines — is described by one
 * Error value: a machine-readable code, the byte offset and chunk
 * index where the damage was found (when known), and the human
 * diagnostic the CLI prints. Drivers branch on code(); humans read
 * message(). The taxonomy exists so degraded results are never
 * reported as exact and so tests can assert *which* failure happened,
 * not just that a string appeared.
 *
 * Two conventions keep the engine's no-exceptions surface intact:
 *  - Public APIs (TraceReader, SweepRunner, sharded replay) report
 *    failures as Error values in their results — never by throwing.
 *  - Internal layers that need non-local exit (fault-injection shims,
 *    worker threads) throw CacError; every thread boundary catches it
 *    and converts back to an Error value on the caller's side.
 */

#ifndef CAC_COMMON_ERROR_HH
#define CAC_COMMON_ERROR_HH

#include <cstdint>
#include <stdexcept>
#include <string>

namespace cac
{

/** What went wrong, machine-readably. */
enum class ErrorCode : std::uint8_t
{
    None = 0,       ///< no error
    OpenFailed,     ///< file could not be opened
    ReadFailed,     ///< read error persisted through the retry budget
    SeekFailed,     ///< fseek/reposition failed
    BadMagic,       ///< file does not start with a trace magic
    BadFileHeader,  ///< file header malformed or checksum mismatch
    Truncated,      ///< data ends before the promised record count
    BadChunkHeader, ///< chunk header corrupt (magic/fields/checksum)
    ChecksumMismatch, ///< chunk payload CRC32C does not match
    BadRecord,      ///< decoded record is invalid (e.g. op out of range)
    WorkerFailed,   ///< a worker thread threw; contained and surfaced
    Timeout,        ///< a per-cell deadline expired
    Saturated,      ///< service admission queue full; request rejected
    Protocol,       ///< malformed wire frame or request payload
};

/** Stable lowercase name for @p code ("checksum_mismatch", ...). */
const char *errorCodeName(ErrorCode code);

/** Sentinel for "offset/index not applicable or unknown". */
constexpr std::uint64_t kNoOffset = ~std::uint64_t{0};

/**
 * One structured failure: code + location + human diagnostic.
 * Default-constructed Errors mean "no error" (ok() is true).
 */
struct Error
{
    ErrorCode code = ErrorCode::None;

    /** Byte offset in the file where the damage was found. */
    std::uint64_t byteOffset = kNoOffset;

    /**
     * Chunk index the failure belongs to: the CACTRC02 file chunk, or
     * for a CACTRC01 record the reader's chunkRecords()-sized chunk.
     */
    std::uint64_t chunkIndex = kNoOffset;

    /** What was being processed (usually the file path or cell name). */
    std::string context;

    /** Human-readable diagnostic (complete sentence, with offsets). */
    std::string detail;

    bool ok() const { return code == ErrorCode::None; }
    explicit operator bool() const { return !ok(); }

    /** The printable diagnostic (detail, falling back to the code). */
    std::string message() const;

    /** Build an error. Offsets default to "unknown". */
    static Error make(ErrorCode code, std::string detail,
                      std::string context = std::string(),
                      std::uint64_t byte_offset = kNoOffset,
                      std::uint64_t chunk_index = kNoOffset);
};

/**
 * Exception carrier for Error values crossing internal layers (worker
 * threads, injected faults). Public APIs never let it escape: every
 * boundary catches CacError and stores err() in its result.
 */
class CacError : public std::runtime_error
{
  public:
    explicit CacError(Error err)
        : std::runtime_error(err.message()), err_(std::move(err))
    {}

    const Error &err() const { return err_; }

  private:
    Error err_;
};

} // namespace cac

#endif // CAC_COMMON_ERROR_HH
