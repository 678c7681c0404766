/**
 * @file
 * Victim cache (Jouppi [13]): a direct-mapped (or set-associative) main
 * cache backed by a small fully-associative victim buffer that catches
 * recently evicted lines. One of the conflict-mitigation baselines the
 * I-Poly scheme is compared against (via reference [10]).
 *
 * A main-cache victim moves into the buffer and stays resident, so a
 * miss reports as its departure (AccessResult::evictedAddr) the block
 * a full buffer drops, not the main-cache victim. A buffer hit frees
 * its slot before the swap refills it, so a hit never departs.
 *
 * Batch replay runs the main array's own batch kernel
 * (SetAssocCache::batchKernel()), so main-array hits stay in its LRU
 * hit loop; each main-array miss comes back, already filled, to a
 * handler that settles the buffer (swap on a buffer hit, insert the
 * main victim otherwise). Under write-no-allocate a store missing
 * both arrays must not fill the main array, which its kernel would
 * already have done, so that configuration replays access by access.
 */

#ifndef CAC_CACHE_VICTIM_HH
#define CAC_CACHE_VICTIM_HH

#include <memory>
#include <optional>

#include "cache/set_assoc.hh"

namespace cac
{

/** Main cache + small fully-associative victim buffer. */
class VictimCache final : public CacheModel
{
  public:
    /**
     * @param geometry main-cache geometry.
     * @param victim_blocks number of lines in the victim buffer.
     * @param write_allocate allocate on write misses?
     */
    VictimCache(const CacheGeometry &geometry, unsigned victim_blocks,
                bool write_allocate = true);

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

    /** Hits satisfied by the victim buffer (counted as hits overall). */
    std::uint64_t victimHits() const { return victim_hits_; }

  private:
    struct VictimLine
    {
        bool valid = false;
        std::uint64_t block = 0;
        std::uint64_t lastTouch = 0;
    };

    /**
     * Insert a block the main cache evicted into the buffer,
     * LRU-replacing.
     * @return the block a full buffer dropped (it left the cache).
     */
    std::optional<std::uint64_t> insertVictim(std::uint64_t block);

    /**
     * The rest of an access whose block missed the main array, which
     * has just filled it (@p fill, its eviction included): a buffer
     * hit swaps the block's buffer line out, a genuine miss counts
     * and moves the main victim into the buffer.
     */
    AccessResult settleMainMiss(std::uint64_t block, bool is_write,
                                const AccessResult &fill);

    /** The main array's batchKernel() handler (victim.cc). */
    struct MainMisses;

    /** accessBatch()/accessMixed() kernel, templated on the kind source. */
    template <typename Kind>
    void batchKernel(const std::uint64_t *addrs, std::size_t n,
                     Kind kind);

    /** Find a victim-buffer line holding @p block, else nullptr. */
    VictimLine *findVictim(std::uint64_t block);
    const VictimLine *findVictim(std::uint64_t block) const;

    SetAssocCache main_;
    std::vector<VictimLine> buffer_;
    bool write_allocate_;
    std::uint64_t tick_ = 0;
    std::uint64_t victim_hits_ = 0;
};

} // namespace cac

#endif // CAC_CACHE_VICTIM_HH
