#include "cache/replacement.hh"

#include <limits>

#include "common/logging.hh"

namespace cac
{

namespace
{

/** Least-recently-used: evict the smallest lastTouch. */
class LruPolicy : public ReplacementPolicy
{
  public:
    std::size_t
    chooseVictim(const std::vector<ReplCandidate> &candidates) override
    {
        auto inv = firstInvalid(candidates);
        if (inv != SIZE_MAX)
            return inv;
        std::size_t victim = 0;
        std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            if (candidates[i].state->lastTouch < oldest) {
                oldest = candidates[i].state->lastTouch;
                victim = i;
            }
        }
        return victim;
    }

    std::string name() const override { return "lru"; }

    bool isPlainLru() const override { return true; }
};

/** First-in first-out: evict the smallest insertTick. */
class FifoPolicy : public ReplacementPolicy
{
  public:
    std::size_t
    chooseVictim(const std::vector<ReplCandidate> &candidates) override
    {
        auto inv = firstInvalid(candidates);
        if (inv != SIZE_MAX)
            return inv;
        std::size_t victim = 0;
        std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            if (candidates[i].state->insertTick < oldest) {
                oldest = candidates[i].state->insertTick;
                victim = i;
            }
        }
        return victim;
    }

    std::string name() const override { return "fifo"; }
};

/** Uniform random victim among all candidates. */
class RandomPolicy : public ReplacementPolicy
{
  public:
    explicit RandomPolicy(std::uint64_t seed) : rng_(seed) {}

    std::size_t
    chooseVictim(const std::vector<ReplCandidate> &candidates) override
    {
        auto inv = firstInvalid(candidates);
        if (inv != SIZE_MAX)
            return inv;
        return rng_.nextBelow(candidates.size());
    }

    std::string name() const override { return "random"; }

  private:
    Rng rng_;
};

/**
 * Not-recently-used: evict the first candidate whose reference bit is
 * clear; when all are set, clear them all (aging) and evict the first.
 * The owning cache shares ReplState, so the const_cast below only
 * touches memory the cache handed us for exactly this purpose.
 */
class NruPolicy : public ReplacementPolicy
{
  public:
    std::size_t
    chooseVictim(const std::vector<ReplCandidate> &candidates) override
    {
        auto inv = firstInvalid(candidates);
        if (inv != SIZE_MAX)
            return inv;
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            if (!candidates[i].state->referenced)
                return i;
        }
        for (const auto &c : candidates)
            const_cast<ReplState *>(c.state)->referenced = false;
        return 0;
    }

    void
    onAccess(ReplState &state, std::uint64_t tick) override
    {
        ReplacementPolicy::onAccess(state, tick);
        state.referenced = true;
    }

    std::string name() const override { return "nru"; }
};

} // anonymous namespace

void
ReplacementPolicy::onAccess(ReplState &state, std::uint64_t tick)
{
    state.lastTouch = tick;
}

void
ReplacementPolicy::onInsert(ReplState &state, std::uint64_t tick)
{
    state.lastTouch = tick;
    state.insertTick = tick;
    state.referenced = false;
}

std::size_t
ReplacementPolicy::firstInvalid(const std::vector<ReplCandidate> &candidates)
{
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (!candidates[i].valid)
            return i;
    }
    return SIZE_MAX;
}

ReplKind
parseReplKind(const std::string &label)
{
    if (label == "lru")
        return ReplKind::Lru;
    if (label == "fifo")
        return ReplKind::Fifo;
    if (label == "random")
        return ReplKind::Random;
    if (label == "nru")
        return ReplKind::Nru;
    fatal("unknown replacement policy '%s'", label.c_str());
}

std::unique_ptr<ReplacementPolicy>
makeReplacementPolicy(ReplKind kind, std::uint64_t seed)
{
    switch (kind) {
      case ReplKind::Lru:
        return std::make_unique<LruPolicy>();
      case ReplKind::Fifo:
        return std::make_unique<FifoPolicy>();
      case ReplKind::Random:
        return std::make_unique<RandomPolicy>(seed);
      case ReplKind::Nru:
        return std::make_unique<NruPolicy>();
    }
    panic("bad ReplKind %d", static_cast<int>(kind));
}

} // namespace cac
