/**
 * @file
 * The benchmark's spans. They are opened and closed only in the
 * benchmark's files, around calls into the program's public functions,
 * and recorded into a private cac::obs::Tracer. The engine's own tracer
 * (obs::Tracer::global()) stays off, so nothing inside the program is
 * instrumented or switched on. The run's spans go out through that
 * tracer's Chrome trace-event export.
 *
 * Two things are kept here on top of the tracer:
 *  - summed calls: calls too short and too frequent to record one by
 *    one (a cache's accessBatch() on a run of a few accesses) are
 *    summed per layer, and their time is charged to the layer of the
 *    innermost open span on the calling thread;
 *  - the per-layer self-time table.
 */

#ifndef E2E_SPANS_HH
#define E2E_SPANS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace_event.hh"

namespace e2e
{

/** Summed time of unrecorded calls into one layer. */
struct Aggregate
{
    std::int64_t ns = 0;
    std::uint64_t calls = 0;
};

/** Per-layer totals: wall time inside its spans, and self time. */
struct LayerTime
{
    double totalNs = 0.0;
    double selfNs = 0.0;
    std::uint64_t spans = 0;
    std::uint64_t calls = 0; ///< summed calls (aggregates)
};

/**
 * Self time per layer. A span's parent is the innermost span on the
 * same thread that contains it (the tracer's clock makes containment
 * exact). Each span's duration, less its child spans, counts to its
 * layer; @p charged (summed child time, by the layer of the span that
 * was open) is taken off those layers, and every aggregate's time is
 * added to the aggregate's own layer.
 */
std::map<std::string, LayerTime>
layerTimes(const std::vector<cac::obs::TraceEvent> &events,
           const std::map<std::string, Aggregate> &aggregates,
           const std::map<std::string, std::int64_t> &charged);

/** Process-wide span log; records nothing until setEnabled(true). */
class SpanLog
{
  public:
    /** Spans kept per recording thread; later ones count as dropped. */
    static constexpr std::size_t kRingCapacity = 1 << 16;

    static SpanLog &global();

    /** Start or pause recording; recorded spans are kept either way. */
    void setEnabled(bool on);
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /**
     * Sum @p calls calls into @p layer that took @p ns, and charge the
     * time to the innermost open span's layer on this thread.
     */
    void addAggregate(const char *layer, std::int64_t ns,
                      std::uint64_t calls);

    /** Every recorded span (quiesce point). */
    std::vector<cac::obs::TraceEvent> events() const;
    std::uint64_t dropped() const { return tracer_.dropped(); }
    std::map<std::string, Aggregate> aggregates() const;
    std::map<std::string, std::int64_t> charged() const;

    /** Forget everything recorded so far (threads must be idle). */
    void reset();

  private:
    friend class ScopedSpan;

    cac::obs::Tracer tracer_;
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    bool started_ = false;
    std::map<std::string, Aggregate> aggregates_;
    std::map<std::string, std::int64_t> charged_;
};

/** RAII span; a no-op when the log is not recording at construction. */
class ScopedSpan
{
  public:
    ScopedSpan(const char *layer, const char *name,
               std::string label = std::string());
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *layer_;
    const char *name_;
    std::string label_;
    std::uint64_t startUs_ = 0;
    bool live_ = false;
};

} // namespace e2e

#endif // E2E_SPANS_HH
