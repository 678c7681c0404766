/**
 * @file
 * Timing decorators the benchmark hands to the program through its
 * public extension points: a CacheModel that times accessBatch(), and
 * a SimTarget that times every call (and, in a traced run, opens a
 * span per call) before forwarding it. Both forward everything else
 * unchanged, so simulated statistics are identical with or without
 * them.
 */

#ifndef E2E_WRAPPERS_HH
#define E2E_WRAPPERS_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_model.hh"
#include "core/sim_target.hh"
#include "report.hh"
#include "spans.hh"

namespace e2e
{

/** Median host ns of an empty timed region (two clock reads). */
std::int64_t clockCostNs();

/**
 * CacheModel decorator estimating the host time of accessBatch().
 * Gathered runs average under three accesses, so a clock read on
 * every call would cost about as much as the call itself. Instead a
 * pseudo-random one call in eight is timed, less the measured cost of
 * the clock reads themselves, and ns() scales the timed share up by
 * accesses.
 */
class TimedModel : public cac::CacheModel
{
  public:
    explicit TimedModel(std::unique_ptr<cac::CacheModel> inner)
        : CacheModel(inner->geometry()), inner_(std::move(inner))
    {}

    cac::AccessResult
    access(std::uint64_t addr, bool is_write) override
    {
        const cac::AccessResult r = inner_->access(addr, is_write);
        stats_ = inner_->stats();
        return r;
    }

    void
    accessBatch(const std::uint64_t *addrs, std::size_t n,
                bool is_write) override
    {
        ++calls_;
        accesses_ += n;
        rng_ ^= rng_ << 13;
        rng_ ^= rng_ >> 7;
        rng_ ^= rng_ << 17;
        if ((rng_ & 7) != 0) {
            inner_->accessBatch(addrs, n, is_write);
        } else {
            const Clock::time_point t0 = Clock::now();
            inner_->accessBatch(addrs, n, is_write);
            sampledNs_ += nanosBetween(t0, Clock::now()) - clockCostNs();
            sampledAccesses_ += n;
        }
        stats_ = inner_->stats();
    }

    bool probe(std::uint64_t addr) const override
    {
        return inner_->probe(addr);
    }

    bool
    invalidate(std::uint64_t addr) override
    {
        const bool r = inner_->invalidate(addr);
        stats_ = inner_->stats();
        return r;
    }

    void
    flush() override
    {
        inner_->flush();
        stats_ = inner_->stats();
    }

    std::string name() const override { return inner_->name(); }

    /** Estimated host ns inside accessBatch() so far. */
    std::int64_t
    ns() const
    {
        return sampledAccesses_ == 0
            ? 0
            : static_cast<std::int64_t>(
                static_cast<double>(sampledNs_)
                * static_cast<double>(accesses_)
                / static_cast<double>(sampledAccesses_));
    }
    std::uint64_t calls() const { return calls_; }
    std::uint64_t accesses() const { return accesses_; }

  private:
    std::unique_ptr<cac::CacheModel> inner_;
    std::uint64_t rng_ = 0x9e3779b97f4a7c15ull;
    std::int64_t sampledNs_ = 0;
    std::uint64_t sampledAccesses_ = 0;
    std::uint64_t calls_ = 0;
    std::uint64_t accesses_ = 0;
};

/**
 * SimTarget decorator. Times every forwarded call; in a traced run,
 * opens a span per call under @p layer and charges the wrapped
 * TimedModel's accessBatch() time as aggregated "cache" child time. The optional cell span opens at construction (the sweep
 * builds each cell's target on the thread that runs the cell) and
 * closes in endCell() or the destructor.
 */
class TracedTarget : public cac::SimTarget
{
  public:
    TracedTarget(std::unique_ptr<cac::SimTarget> inner, const char *layer,
                 TimedModel *timed, std::string label, bool cell_span);
    ~TracedTarget() override;

    TracedTarget(const TracedTarget &) = delete;
    TracedTarget &operator=(const TracedTarget &) = delete;

    std::string name() const override { return inner_->name(); }
    cac::TargetKind kind() const override { return inner_->kind(); }
    void accessBatch(const std::uint64_t *addrs, std::size_t n,
                     bool is_write) override;
    void replay(const cac::TraceRecord *recs, std::size_t n) override;
    void finish() override;
    void checkpoint() override;
    void flushPrimary() override;
    cac::TargetStats stats() const override { return inner_->stats(); }

    /** Close the cell span (if any) and return the cell's age in ns. */
    std::int64_t endCell();

    /** Host ns spent inside forwarded calls. */
    std::int64_t callNs() const { return callNs_; }
    std::uint64_t records() const { return records_; }
    const TimedModel *timed() const { return timed_; }

  private:
    template <typename F> void timedCall(const char *what, F &&f);

    std::unique_ptr<cac::SimTarget> inner_;
    const char *layer_;
    TimedModel *timed_;
    std::string label_;
    Clock::time_point born_;
    std::optional<ScopedSpan> cellSpan_;
    std::int64_t callNs_ = 0;
    std::uint64_t records_ = 0;
};

/**
 * Build @p label the way the registry does, wrapped for timing. In a
 * traced run a single-level organization also gets a TimedModel inside
 * its CacheTarget, so its accessBatch() time is attributed to the
 * cache layer; untraced runs skip that per-batch clock.
 */
std::unique_ptr<TracedTarget>
buildTimedTarget(const std::string &label, const cac::TargetSpec &spec,
                 bool cell_span);

} // namespace e2e

#endif // E2E_WRAPPERS_HH
