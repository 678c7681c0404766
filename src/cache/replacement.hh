/**
 * @file
 * Replacement policies.
 *
 * In a skewed cache (per-way index functions) the replacement candidates
 * for an incoming block live at a *different set in each way*, so the
 * classic per-set LRU stack does not exist. Policies here therefore
 * operate on per-line metadata (timestamps / reference bits) and choose
 * among an arbitrary candidate list, which covers conventional and
 * skewed organizations uniformly. Every policy keeps its state in the
 * lines (ReplState) and nowhere else, so no call takes a set or way;
 * a policy with per-set state (tree pseudo-LRU) could not serve a
 * skewed cache and is not provided.
 */

#ifndef CAC_CACHE_REPLACEMENT_HH
#define CAC_CACHE_REPLACEMENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace cac
{

/** Per-line replacement metadata. */
struct ReplState
{
    std::uint64_t lastTouch = 0; ///< tick of last access (LRU)
    std::uint64_t insertTick = 0; ///< tick of fill (FIFO)
    bool referenced = false;     ///< reference bit (NRU)
};

/** One replacement candidate handed to a policy. */
struct ReplCandidate
{
    bool valid = false;          ///< line currently holds data
    const ReplState *state = nullptr; ///< metadata (valid lines only)
};

/** Replacement policy selector. */
enum class ReplKind
{
    Lru,
    Fifo,
    Random,
    Nru
};

/** Parse "lru" / "fifo" / "random" / "nru". */
ReplKind parseReplKind(const std::string &label);

/**
 * Abstract replacement policy. The owning cache calls onInsert/onAccess
 * to maintain metadata and chooseVictim on a fill.
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /**
     * Pick the candidate to evict. Invalid candidates are always
     * preferred by the base implementation; subclasses rank the valid
     * ones.
     *
     * @param candidates one entry per way.
     * @return index into @p candidates.
     */
    virtual std::size_t
    chooseVictim(const std::vector<ReplCandidate> &candidates) = 0;

    /** Update metadata on a hit. */
    virtual void onAccess(ReplState &state, std::uint64_t tick);

    /** Update metadata on a fill. */
    virtual void onInsert(ReplState &state, std::uint64_t tick);

    /** Policy name. */
    virtual std::string name() const = 0;

    /**
     * True only for the stock LRU policy: metadata updates are exactly
     * the base onAccess()/onInsert() and the victim is the first
     * invalid candidate, else the first with the smallest lastTouch.
     * SetAssocCache uses this to inline the whole policy on its batch
     * fast path — any subclass that changes the semantics must keep
     * returning false (the default) or the inlined path would diverge.
     */
    virtual bool isPlainLru() const { return false; }

  protected:
    /**
     * Return the position of an invalid candidate if any, else SIZE_MAX.
     */
    static std::size_t
    firstInvalid(const std::vector<ReplCandidate> &candidates);
};

/**
 * Build a policy.
 *
 * @param kind policy selector.
 * @param seed RNG seed for the Random policy.
 */
std::unique_ptr<ReplacementPolicy>
makeReplacementPolicy(ReplKind kind, std::uint64_t seed = 1);

} // namespace cac

#endif // CAC_CACHE_REPLACEMENT_HH
