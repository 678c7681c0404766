/**
 * @file
 * Convenience emitter for building synthetic traces.
 *
 * Workload kernels are ordinary C++ loops that call the emit helpers;
 * each call site becomes one *static* instruction whose synthetic PC is
 * derived from std::source_location, so every dynamic instance of the
 * same source line shares a PC. That property is what makes the
 * branch-history table and the memory-address predictor behave as they
 * would on real code (loads in a loop exhibit a stable stride per PC).
 *
 * A call site's key is hash(file name contents) ^ line<<20 ^ column<<8
 * ^ salt<<40, and PCs are handed out densely in first-seen order. The
 * builder remembers the last file-name pointer and its hash, so a run
 * of emits from one file hashes its name once, and looks the key up
 * in a flat BlockTable, so an emit from a known site costs one pointer
 * compare and one probe. The key hashes the name's contents, not its
 * pointer: one header call site reached from two translation units
 * may arrive through two pointers to equal strings, and must keep one
 * PC. Which sites share a key decides every PC, so the key's layout
 * is part of every synthesized trace; tests/golden/proxy_digests.txt
 * pins the result.
 */

#ifndef CAC_TRACE_BUILDER_HH
#define CAC_TRACE_BUILDER_HH

#include <optional>
#include <source_location>
#include <span>

#include "common/block_table.hh"
#include "trace/record.hh"

namespace cac
{

/** Architectural register helpers. */
namespace reg
{

/** Integer register i (0..31). */
constexpr std::int8_t
r(unsigned i)
{
    return static_cast<std::int8_t>(i & 31);
}

/** Floating-point register i (0..31, stored as 32..63). */
constexpr std::int8_t
f(unsigned i)
{
    return static_cast<std::int8_t>(32 + (i & 31));
}

constexpr std::int8_t none = -1;

} // namespace reg

/**
 * Appends records to a Trace with stable synthetic PCs per call site.
 */
class TraceBuilder
{
  public:
    /**
     * @param trace destination stream (owned by the caller); records
     *        already in it are kept, and new ones are appended after
     *        them.
     */
    explicit TraceBuilder(Trace &trace)
        : trace_(trace), start_(trace.size())
    {
    }

    /**
     * Emit a load of @p addr into @p dst, addressing off @p base.
     *
     * @param salt distinguishes static instructions emitted from one
     *        call site in a loop over arrays (each array's load in real
     *        code is a separate instruction with its own PC).
     */
    void
    load(std::uint64_t addr, std::int8_t dst, std::int8_t base = reg::none,
         unsigned salt = 0,
         std::source_location loc = std::source_location::current())
    {
        TraceRecord rec;
        rec.op = OpClass::Load;
        rec.dst = dst;
        rec.src1 = base;
        rec.addr = addr;
        rec.pc = pcFor(loc, salt);
        trace_.push_back(rec);
    }

    /** Emit a store of @p src to @p addr, addressing off @p base. */
    void
    store(std::uint64_t addr, std::int8_t src, std::int8_t base = reg::none,
          unsigned salt = 0,
          std::source_location loc = std::source_location::current())
    {
        TraceRecord rec;
        rec.op = OpClass::Store;
        rec.src1 = src;
        rec.src2 = base;
        rec.addr = addr;
        rec.pc = pcFor(loc, salt);
        trace_.push_back(rec);
    }

    /** Emit a non-memory operation. */
    void
    alu(OpClass op, std::int8_t dst, std::int8_t src1 = reg::none,
        std::int8_t src2 = reg::none, unsigned salt = 0,
        std::source_location loc = std::source_location::current())
    {
        TraceRecord rec;
        rec.op = op;
        rec.dst = dst;
        rec.src1 = src1;
        rec.src2 = src2;
        rec.pc = pcFor(loc, salt);
        trace_.push_back(rec);
    }

    /** Emit a conditional branch with actual direction @p taken. */
    void
    branch(bool taken, std::int8_t src1 = reg::none, unsigned salt = 0,
           std::source_location loc = std::source_location::current())
    {
        TraceRecord rec;
        rec.op = OpClass::Branch;
        rec.taken = taken;
        rec.src1 = src1;
        rec.pc = pcFor(loc, salt);
        trace_.push_back(rec);
    }

    /** Number of distinct static instructions emitted so far. */
    std::size_t
    staticInstructions() const
    {
        return pcs_.size() + (reserved_key_pc_ ? 1 : 0);
    }

    /**
     * Number of dynamic instructions this builder has emitted so far
     * (records the trace held before the builder was made are not
     * counted).
     */
    std::size_t size() const { return trace_.size() - start_; }

  private:
    /**
     * The synthetic PC of call site @p loc with @p salt. Column is in
     * the key so two emits on one line get distinct PCs, salt so loops
     * over arrays get one PC per array; the layout must not change, or
     * every synthesized trace changes with it. A known site in the
     * last file seen costs a pointer compare and one table probe; only
     * a new file or a site's first sighting leaves this inline path.
     */
    std::uint32_t
    pcFor(const std::source_location &loc, unsigned salt)
    {
        if (loc.file_name() != file_) [[unlikely]]
            rehashFile(loc.file_name());
        const std::uint64_t key =
            file_hash_ ^ (static_cast<std::uint64_t>(loc.line()) << 20)
            ^ (static_cast<std::uint64_t>(loc.column()) << 8)
            ^ (static_cast<std::uint64_t>(salt) << 40);
        if (const std::uint32_t *pc = pcs_.find(key)) [[likely]]
            return *pc;
        return firstSighting(key);
    }

    void rehashFile(const char *file);
    std::uint32_t firstSighting(std::uint64_t key);

    Trace &trace_;
    std::size_t start_; ///< trace_.size() when the builder was made
    const char *file_ = nullptr; ///< file name file_hash_ was taken of
    std::uint64_t file_hash_ = 0;
    /** Call-site key -> dense synthetic PC. */
    BlockTable<std::uint32_t> pcs_;
    /** The PC of key BlockTable::kEmptyKey, which pcs_ cannot hold. */
    std::optional<std::uint32_t> reserved_key_pc_;
};

/**
 * Relocate a trace into a private address/PC window: every memory
 * operation's address shifts by @p addr_offset and every record's
 * synthetic PC by @p pc_offset. The scenario engine uses this to give
 * each co-scheduled program a disjoint ASID region (and disjoint
 * static instructions, so the predictors see separate code). Takes a
 * span so one program can be relocated where it lies inside a larger
 * buffer; a Trace converts implicitly.
 */
void relocateTrace(std::span<TraceRecord> trace, std::uint64_t addr_offset,
                   std::uint32_t pc_offset);

/**
 * Rotate @p trace left by @p records (modulo its length): the stream
 * starts that many records into its cyclic reference pattern. The
 * scenario engine's phase-shift knob. In place, like relocateTrace().
 */
void rotateTrace(std::span<TraceRecord> trace, std::size_t records);

} // namespace cac

#endif // CAC_TRACE_BUILDER_HH
