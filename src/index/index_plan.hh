/**
 * @file
 * Compiled index plans: the allocation-free, virtual-free evaluation
 * form of a placement function.
 *
 * Every IndexFn in the library is linear over GF(2) — a set-index bit
 * is an XOR (parity) of a fixed subset of block-address bits, whether
 * the scheme is plain bit selection, the rotated-field XOR of the
 * skewed-associative cache, or the polynomial modulus of I-Poly. That
 * makes the whole per-way family compilable into one flat structure a
 * cache can evaluate inline, with no per-access virtual dispatch:
 *
 *  - Modulo: a single AND with the set mask (the conventional shift-
 *    and-mask fast path), shared by every way.
 *  - Packed: when num_ways * set_bits <= 64, all ways' XOR matrices are
 *    folded into byte-indexed lookup tables whose entries hold the
 *    *concatenated* per-way indices; evaluating every way for an
 *    address costs ceil(input_bits/8) table loads and XORs, then a
 *    shift-and-mask extract per way. This is how the plan beats even a
 *    hardware-parity loop: the tables precompute the parities of all
 *    ways at once.
 *  - RowMask: the general fallback — one contiguous row-mask buffer
 *    (way-major), one hardware parity (popcount) per index bit.
 *  - Callback: for out-of-tree IndexFn subclasses that do not lower
 *    themselves; forwards to the virtual index(). Also used by the
 *    equivalence tests to force the uncompiled path.
 *
 * A cache compiles its plan once, via compilePlan(fn) in its
 * constructor: placement functions are fixed when built (the paper's
 * XOR tree "if P is constant"), so a plan never goes stale.
 *
 * Batch evaluation: because every plan is GF(2)-linear, a whole block
 * of addresses can be pushed through the same tables per pass.
 * indexSetsBatch() is the universal form (every Kind, way-minor
 * output); indexPackedBatch() is the hot-path form the caches consume
 * — one packed word per address holding the concatenated per-way
 * indices, produced by a software-pipelined SWAR loop or, where the
 * CPU supports it, an AVX2 gather over the byte tables (dispatched at
 * run time, so one binary serves both). Both batch paths are
 * bit-identical to the scalar indexOne()/indexAll() they replace;
 * tests/index/test_index_plan.cc asserts this for every Kind.
 */

#ifndef CAC_INDEX_INDEX_PLAN_HH
#define CAC_INDEX_INDEX_PLAN_HH

#include <cstdint>
#include <vector>

#include "common/bits.hh"

namespace cac
{

class IndexFn;
class XorMatrix;

/** Compiled, non-virtual evaluation plan for one placement function. */
class IndexPlan
{
  public:
    /** Evaluation strategy the compiler chose. */
    enum class Kind
    {
        Modulo,   ///< set = block & mask, identical for all ways
        Packed,   ///< byte tables with concatenated per-way indices
        RowMask,  ///< one parity per (way, index bit)
        Callback  ///< virtual IndexFn::index() fallback
    };

    /** Empty plan (direct-mapped modulo of width 1); reassign before use. */
    IndexPlan() = default;

    /** The conventional shift-and-mask plan. */
    static IndexPlan makeModulo(unsigned set_bits, unsigned num_ways);

    /**
     * Compile from per-way XOR row masks.
     *
     * @param set_bits index width m.
     * @param num_ways associativity.
     * @param input_bits low-order block-address bits the masks cover.
     * @param row_masks way-major: row_masks[way * set_bits + bit] selects
     *        the address bits XORed into that way's index bit.
     */
    static IndexPlan fromRowMasks(unsigned set_bits, unsigned num_ways,
                                  unsigned input_bits,
                                  std::vector<std::uint64_t> row_masks);

    /**
     * Compile from one XorMatrix per way (the I-Poly lowering):
     * extracts every matrix's row masks into the way-major layout and
     * defers to fromRowMasks(). All matrices must share one output
     * width and one input width.
     */
    static IndexPlan fromXorMatrices(const std::vector<XorMatrix> &ways);

    /**
     * Uncompiled fallback forwarding to @p fn.index(). The plan holds a
     * pointer; @p fn must outlive it (caches own their IndexFn).
     */
    static IndexPlan fromCallback(const IndexFn &fn);

    Kind kind() const { return kind_; }
    unsigned setBits() const { return set_bits_; }
    unsigned numWays() const { return num_ways_; }

    /**
     * True when every way maps a block to the same set (non-skewed):
     * callers may evaluate way 0 once and reuse it.
     */
    bool uniform() const { return uniform_; }

    /** Set index of @p block_addr in @p way. */
    std::uint64_t indexOne(std::uint64_t block_addr, unsigned way) const
    {
        switch (kind_) {
          case Kind::Modulo:
            return block_addr & set_mask_;
          case Kind::Packed:
            return packedAll(block_addr) >> (way * set_bits_) & set_mask_;
          default:
            return genericOne(block_addr, way);
        }
    }

    /**
     * Set indices of @p block_addr in every way, written to
     * @p out[0..numWays()). The inlined hot path of findLine()/fill().
     */
    void indexAll(std::uint64_t block_addr, std::uint64_t *out) const
    {
        switch (kind_) {
          case Kind::Modulo: {
            const std::uint64_t set = block_addr & set_mask_;
            for (unsigned w = 0; w < num_ways_; ++w)
                out[w] = set;
            return;
          }
          case Kind::Packed: {
            const std::uint64_t packed = packedAll(block_addr);
            for (unsigned w = 0; w < num_ways_; ++w)
                out[w] = packed >> (w * set_bits_) & set_mask_;
            return;
          }
          default:
            genericAll(block_addr, out);
        }
    }

    /**
     * True when the plan has a packed single-word form: the set indices
     * of *all* ways fit one uint64 (Modulo and Packed kinds). Exactly
     * these plans may use packedOne()/indexPackedBatch(); every
     * organization in the registry compiles to one of them.
     */
    bool packedCapable() const
    {
        return kind_ == Kind::Modulo || kind_ == Kind::Packed;
    }

    /**
     * Packed index word of @p block_addr: the concatenated per-way set
     * indices (way w in bits [w*setBits(), (w+1)*setBits())). For
     * Modulo plans the word is simply the shared set index. Requires
     * packedCapable().
     */
    std::uint64_t packedOne(std::uint64_t block_addr) const
    {
        if (kind_ == Kind::Modulo)
            return block_addr & set_mask_;
        return packedAll(block_addr);
    }

    /** Extract way @p way's set index from a packedOne() word. */
    std::uint64_t wayFromPacked(std::uint64_t packed, unsigned way) const
    {
        if (kind_ == Kind::Modulo)
            return packed;
        return packed >> (way * set_bits_) & set_mask_;
    }

    /**
     * Batch form of packedOne(): packed_out[i] = packedOne(
     * block_addrs[i]) for i in [0, n). Requires packedCapable(). This
     * is the SIMD entry point: Modulo vectorizes to a masked copy, and
     * the Packed byte-table fold runs 4 addresses per iteration (an
     * AVX2 table gather when the CPU has it, a 4-chain SWAR unroll
     * otherwise). In-place operation (packed_out == block_addrs) is
     * allowed.
     */
    void indexPackedBatch(const std::uint64_t *block_addrs, std::size_t n,
                          std::uint64_t *packed_out) const;

    /**
     * Batch form of indexAll() for every Kind: sets_out[i * numWays()
     * + w] = indexOne(block_addrs[i], w). Packed-capable plans route
     * through indexPackedBatch(); RowMask and Callback plans evaluate
     * per address. @p sets_out must not alias @p block_addrs.
     */
    void indexSetsBatch(const std::uint64_t *block_addrs, std::size_t n,
                        std::uint64_t *sets_out) const;

    /**
     * Test hook: while true, compilePlan() returns Callback plans so the
     * equivalence suite can drive the virtual path end to end.
     */
    static void forceCallbackForTests(bool force);
    static bool callbackForced();

  private:
    /** XOR-fold the byte tables: concatenated indices of all ways. */
    std::uint64_t packedAll(std::uint64_t block_addr) const
    {
        std::uint64_t packed = 0;
        std::uint64_t v = block_addr;
        for (unsigned c = 0; c < chunks_; ++c, v >>= 8)
            packed ^= table_[(c << 8) | (v & 0xff)];
        return packed;
    }

    /** Out-of-line RowMask / Callback paths. */
    std::uint64_t genericOne(std::uint64_t block_addr, unsigned way) const;
    void genericAll(std::uint64_t block_addr, std::uint64_t *out) const;

    Kind kind_ = Kind::Modulo;
    unsigned set_bits_ = 1;
    unsigned num_ways_ = 1;
    unsigned input_bits_ = 1;
    bool uniform_ = true;
    std::uint64_t set_mask_ = 1;
    unsigned chunks_ = 0; ///< byte tables (Packed): ceil(input_bits / 8)
    /** Packed: table_[chunk * 256 + byte] -> concatenated way indices. */
    std::vector<std::uint64_t> table_;
    /** RowMask: way-major parity masks, row_masks_[way * set_bits + bit]. */
    std::vector<std::uint64_t> row_masks_;
    const IndexFn *fallback_ = nullptr; ///< Callback target
};

/**
 * Compile @p fn into its plan (fn.compile(), or a Callback plan while
 * the test hook forces the virtual path). This is the entry point
 * caches use at construction.
 */
IndexPlan compilePlan(const IndexFn &fn);

/**
 * Which batch-evaluation kernel the runtime dispatch selected on this
 * host: "avx2" when the gather path is compiled in and the CPU
 * supports it, "swar" otherwise. Provenance for the run manifest
 * (obs/manifest.hh) — perf numbers are not comparable across the two.
 */
const char *indexPlanSimdDispatch();

} // namespace cac

#endif // CAC_INDEX_INDEX_PLAN_HH
