/**
 * @file
 * Two-probe direct-mapped caches: hash-rehash [1] and the paper's
 * column-associative variant with a polynomial second probe
 * (section 3.1, option 4).
 *
 * The cache is direct mapped. An access first probes the conventional
 * (modulo) location; on a first-probe miss it probes an alternative
 * location computed by a second hash. A second-probe hit swaps the two
 * lines so the next access to this block hits on the *first* probe —
 * this is what keeps ~90% of hits on the fast path. A full miss fills
 * the conventional location and relegates its previous occupant to that
 * occupant's own alternative location. Both moves can push a line out
 * of the cache; the access reports it as its departure
 * (AccessResult::evictedAddr), on a second-probe hit as on a miss.
 */

#ifndef CAC_CACHE_TWO_PROBE_HH
#define CAC_CACHE_TWO_PROBE_HH

#include <memory>
#include <optional>
#include <vector>

#include "cache/cache_model.hh"
#include "index/index_fn.hh"
#include "index/index_plan.hh"

namespace cac
{

/** Second-probe hash selector. */
enum class RehashKind
{
    FlipTopBit, ///< classic hash-rehash: invert the top index bit
    IPoly       ///< the paper's polynomial rehash
};

/** Direct-mapped cache with a second probe at an alternative index. */
class TwoProbeCache final : public CacheModel
{
  public:
    /**
     * @param geometry must be direct mapped (1 way).
     * @param rehash second-probe hash kind.
     * @param input_bits block-address bits given to the polynomial hash.
     * @param write_allocate allocate on write misses?
     */
    TwoProbeCache(const CacheGeometry &geometry, RehashKind rehash,
                  unsigned input_bits = 14, bool write_allocate = true);

    AccessResult access(std::uint64_t addr, bool is_write) override;
    void accessBatch(const std::uint64_t *addrs, std::size_t n,
                     bool is_write) override;
    void accessMixed(const std::uint64_t *addrs, const bool *writes,
                     std::size_t n) override;
    bool probe(std::uint64_t addr) const override;
    void forEachBlock(
        const std::function<void(std::uint64_t)> &visit) const override;
    bool invalidate(std::uint64_t addr) override;
    void flush() override;
    std::string name() const override;

    /** Fraction of hits satisfied on the first probe. */
    double firstProbeHitFraction() const;

  private:
    struct Line
    {
        bool valid = false;
        std::uint64_t block = 0;
    };

    std::uint64_t primaryIndex(std::uint64_t block) const;
    std::uint64_t secondaryIndex(std::uint64_t block) const;

    /** accessBatch()/accessMixed() kernel, templated on the kind source. */
    template <typename Kind>
    void batchKernel(const std::uint64_t *addrs, std::size_t n,
                     Kind kind);

    /**
     * access() with both probe indices already computed — the batch
     * path evaluates the polynomial rehash for a whole tile per pass
     * and feeds the results here.
     */
    AccessResult accessIndexed(std::uint64_t block, std::uint64_t i1,
                               std::uint64_t i2, bool is_write);

    /**
     * Move @p displaced, just pushed out of slot @p from, to its own
     * alternative slot. The line that leaves the cache — the slot's
     * previous occupant, or @p displaced itself when its alternative
     * is @p from — is counted as an eviction.
     * @return the departed block's byte address, if one left.
     */
    std::optional<std::uint64_t> demote(const Line &displaced,
                                        std::uint64_t from);

    RehashKind rehash_;
    std::unique_ptr<IndexFn> poly_; ///< used when rehash_ == IPoly
    /**
     * Compiled form of poly_ built once at construction; the secondary
     * probe evaluates it inline instead of the virtual index(). (The
     * flip-top-bit rehash is a single XOR and needs no plan.)
     */
    IndexPlan poly_plan_;
    bool write_allocate_;
    std::vector<Line> lines_;
};

} // namespace cac

#endif // CAC_CACHE_TWO_PROBE_HH
