/**
 * @file
 * In-memory instruction-trace record.
 *
 * The CPU model is trace driven (like the paper's own simulator): each
 * record is one dynamic instruction with its class, register operands,
 * and — for memory operations — the effective address, or — for
 * branches — the actual direction. Architectural registers 0..31 are
 * integer, 32..63 floating point; -1 marks "no operand".
 *
 * A decoded TraceRecord is 16 bytes; the CACTRC01/02 files store each
 * record in a separate 24-byte on-disk layout, and only the pack() and
 * unpack() converters in trace/io.cc translate between the two.
 */

#ifndef CAC_TRACE_RECORD_HH
#define CAC_TRACE_RECORD_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cac
{

/** Instruction classes, matching the paper's Table 1 functional units. */
enum class OpClass : std::uint8_t
{
    IntAlu,  ///< simple integer, latency 1
    IntMul,  ///< complex integer multiply, latency 9
    IntDiv,  ///< complex integer divide, latency 67
    FpAdd,   ///< simple FP, latency 4
    FpMul,   ///< FP multiply, latency 4
    FpDiv,   ///< FP divide, latency 16 (repeat 16)
    FpSqrt,  ///< FP square root, latency 35 (repeat 35)
    Load,    ///< memory load (uses an effective-address unit + cache)
    Store,   ///< memory store (address at issue, data to memory at commit)
    Branch   ///< conditional branch (predicted by the BHT)
};

/** Printable mnemonic. */
std::string opClassName(OpClass op);

/** True for Load/Store. */
constexpr bool
isMemOp(OpClass op)
{
    return op == OpClass::Load || op == OpClass::Store;
}

/** True for FP arithmetic classes. */
constexpr bool
isFpOp(OpClass op)
{
    return op == OpClass::FpAdd || op == OpClass::FpMul
        || op == OpClass::FpDiv || op == OpClass::FpSqrt;
}

/**
 * One dynamic instruction: 16 bytes, no padding. `op` and `taken`
 * share one byte; the reader rejects any op byte above Branch before it
 * decodes a record, so the 7-bit field holds every valid class.
 */
struct TraceRecord
{
    /** Effective byte address for Load/Store; 0 otherwise. */
    std::uint64_t addr = 0;
    /**
     * Static instruction identifier (synthetic PC). Instructions from
     * the same source-level site share a pc across dynamic instances,
     * which is what the branch predictor and the memory-address
     * predictor index on.
     */
    std::uint32_t pc = 0;
    OpClass op : 7 = OpClass::IntAlu;
    bool taken : 1 = false; ///< branch outcome
    std::int8_t dst = -1;   ///< destination register or -1
    std::int8_t src1 = -1;  ///< first source register or -1
    std::int8_t src2 = -1;  ///< second source register or -1
};

static_assert(sizeof(TraceRecord) == 16, "TraceRecord grew padding");

/** A dynamic instruction stream. */
using Trace = std::vector<TraceRecord>;

} // namespace cac

#endif // CAC_TRACE_RECORD_HH
