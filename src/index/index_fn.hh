/**
 * @file
 * Cache set-index (placement) function interface.
 *
 * A placement function maps a *block address* (byte address with the
 * block-offset bits already shifted out) to a set index, independently
 * for each way. Conventional caches use the same modulo-power-of-two
 * function for every way; skewed organizations give each way its own
 * function (section 2.1.1: "If we choose to use distinct values for each
 * P_k the cache will be skewed").
 */

#ifndef CAC_INDEX_INDEX_FN_HH
#define CAC_INDEX_INDEX_FN_HH

#include <cstdint>
#include <memory>
#include <string>

#include "index/index_plan.hh"

namespace cac
{

/**
 * Abstract placement function for a cache with 2^setBits() sets and
 * numWays() ways.
 */
class IndexFn
{
  public:
    virtual ~IndexFn() = default;

    /**
     * Set index for @p block_addr in way @p way.
     *
     * @param block_addr block address (byte address >> offset bits).
     * @param way way number, < numWays().
     * @return set index in [0, 2^setBits()).
     */
    virtual std::uint64_t index(std::uint64_t block_addr,
                                unsigned way) const = 0;

    /**
     * Lower this function into a compiled, non-virtual IndexPlan that
     * caches evaluate inline (see index_plan.hh). The plan must agree
     * with index() on every (block_addr, way). The base implementation
     * returns a Callback plan that forwards to index(), so out-of-tree
     * subclasses stay correct without lowering; every in-tree function
     * overrides this with a real compilation.
     */
    virtual IndexPlan compile() const;

    /** Number of index bits m. */
    unsigned setBits() const { return set_bits_; }

    /** Number of sets (2^m). */
    std::uint64_t numSets() const { return std::uint64_t{1} << set_bits_; }

    /** Number of ways this function was built for. */
    unsigned numWays() const { return num_ways_; }

    /** True when different ways may map one block to different sets. */
    virtual bool isSkewed() const = 0;

    /** Short identifier, e.g. "a2", "a2-Hp-Sk". */
    virtual std::string name() const = 0;

  protected:
    /**
     * @param set_bits index width m.
     * @param num_ways associativity the function serves.
     */
    IndexFn(unsigned set_bits, unsigned num_ways);

    unsigned set_bits_;
    unsigned num_ways_;
};

/**
 * Conventional modulo-power-of-two placement (the paper's "a2" label):
 * the set index is simply the low m bits of the block address. This is
 * the scheme whose repetitive conflicts section 2 analyzes.
 */
class ModuloIndex : public IndexFn
{
  public:
    ModuloIndex(unsigned set_bits, unsigned num_ways);

    std::uint64_t index(std::uint64_t block_addr,
                        unsigned way) const override;
    IndexPlan compile() const override; ///< shift-and-mask fast path
    bool isSkewed() const override { return false; }
    std::string name() const override;
};

} // namespace cac

#endif // CAC_INDEX_INDEX_FN_HH
