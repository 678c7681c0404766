/**
 * @file
 * Metrics registry: counters, gauges and log-bucket histograms in
 * per-thread shards, merged deterministically at snapshot time.
 *
 * Design constraints (this rides inside a replay engine doing >100M
 * accesses/s, so the hot-path rules are strict):
 *
 *  - An update while metrics are runtime-disabled costs one relaxed
 *    atomic load and a branch.
 *  - An update while enabled touches only this thread's shard — a
 *    fixed array indexed by metric id — so there is no cross-thread
 *    cache-line traffic and no lock on the update path.
 *  - Updates happen at *boundaries* (per chunk, per segment, per
 *    retry), never per access; see obs/obs.hh.
 *
 * Determinism: snapshot() merges shards with order-independent
 * operators (counters and histogram buckets sum, gauges take the max)
 * and reports metrics sorted by name, so the merged snapshot of a run
 * is identical whether the work ran on 1, 4 or 8 worker threads
 * (tests/obs/test_metrics.cc pins this down).
 *
 * Concurrency contract: updates are thread-safe from any number of
 * threads concurrently, and snapshot() may run while they happen.
 * Shard storage is sized at the registration caps below and never
 * reallocates; each cell is a relaxed atomic written only by its
 * owning thread. A snapshot taken mid-run sees every cell at some
 * recent value; the exact, deterministic totals need a quiesce point
 * — after the instrumented work has been joined (SweepRunner's
 * parallelFor joins its pool before results are read, which is where
 * the engine snapshots). reset() must run at a quiesce point. Shards
 * are owned by the registry and survive thread exit, so short-lived
 * worker threads keep contributing to the merged totals.
 */

#ifndef CAC_OBS_METRICS_HH
#define CAC_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cac::obs
{

class Registry;

/** Number of log2 histogram buckets: bucket k holds values with
 *  bit_width(v) == k, i.e. bucket 0 is v==0 and bucket k>=1 covers
 *  [2^(k-1), 2^k - 1]. 65 buckets span all of uint64_t. */
constexpr std::size_t kHistBuckets = 65;

/** Most counters, gauges and histograms one registry can hold (the
 *  fixed shard sizes; registering one more is a library bug). */
constexpr std::size_t kMaxCounters = 256;
constexpr std::size_t kMaxGauges = 64;
constexpr std::size_t kMaxHistograms = 64;

/**
 * Handle to a named monotonic counter. Cheap to copy; obtain once per
 * call site (e.g. a function-local static) via Registry::counter().
 */
class Counter
{
  public:
    Counter() = default;
    /** Add @p v to this thread's shard (no-op while disabled). */
    void add(std::uint64_t v) const;

  private:
    friend class Registry;
    Counter(Registry *owner, std::size_t id) : owner_(owner), id_(id) {}
    Registry *owner_ = nullptr;
    std::size_t id_ = 0;
};

/**
 * Handle to a named gauge. Shards merge by max, so a gauge reports the
 * high-water mark across all threads (e.g. deepest queue, largest
 * ring-buffer occupancy).
 */
class Gauge
{
  public:
    Gauge() = default;
    /** Raise this thread's value to at least @p v. */
    void set(std::uint64_t v) const;

  private:
    friend class Registry;
    Gauge(Registry *owner, std::size_t id) : owner_(owner), id_(id) {}
    Registry *owner_ = nullptr;
    std::size_t id_ = 0;
};

/**
 * Handle to a named log2-bucket histogram (for durations, sizes,
 * retry counts — anything spanning orders of magnitude).
 */
class Histogram
{
  public:
    Histogram() = default;
    /** Record one observation of @p v. */
    void observe(std::uint64_t v) const;

  private:
    friend class Registry;
    Histogram(Registry *owner, std::size_t id) : owner_(owner), id_(id) {}
    Registry *owner_ = nullptr;
    std::size_t id_ = 0;
};

/** One merged histogram in a snapshot. */
struct HistSnapshot
{
    std::string name;
    std::uint64_t count = 0; ///< total observations
    std::uint64_t sum = 0;   ///< sum of observed values
    std::array<std::uint64_t, kHistBuckets> buckets{};

    /**
     * Value at quantile @p q in [0, 1]: the upper edge of the log2
     * bucket containing that rank (2^k - 1 for bucket k, 0 for the
     * zero bucket). An upper bound on the true quantile, exact to the
     * bucket resolution.
     */
    std::uint64_t quantile(double q) const;
};

/** Deterministic merged view of every shard, sorted by metric name. */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::uint64_t>> gauges;
    std::vector<HistSnapshot> histograms;

    /** Counter value by name; 0 when absent. */
    std::uint64_t counter(const std::string &name) const;
};

/**
 * The metric registry. One process-wide instance (global()) serves the
 * engine; tests may build private instances.
 */
class Registry
{
  public:
    Registry();
    ~Registry();
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** The engine-wide registry the instrumentation macros use. */
    static Registry &global();

    /**
     * Register (or look up) a metric by name. Names are stable
     * identifiers ("trace.chunks_decoded"); repeated calls with the
     * same name return handles to the same metric.
     */
    Counter counter(const std::string &name);
    Gauge gauge(const std::string &name);
    Histogram histogram(const std::string &name);

    /** Runtime switch. Disabled (the default) makes updates no-ops. */
    void setEnabled(bool on);
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Merge every shard (exact at a quiesce point; see file comment). */
    MetricsSnapshot snapshot() const;

    /** Zero every shard's values (quiesce point only). */
    void reset();

    /** Number of per-thread shards ever registered. */
    std::size_t shardCount() const;

  private:
    friend class Counter;
    friend class Gauge;
    friend class Histogram;

    struct Shard;
    struct MetricDef;

    Shard *localShard();
    void update(std::size_t id, std::uint64_t v);

    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_; ///< guards defs_ and shards_ registration
    std::vector<MetricDef> defs_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::uint64_t epoch_; ///< distinguishes registry instances in TLS
};

/**
 * Render a snapshot as a JSON object fragment:
 * {"counters": {...}, "gauges": {...}, "histograms": [...]}.
 * @p indent is the number of leading spaces on each emitted line.
 */
std::string metricsJson(const MetricsSnapshot &snap, int indent = 2);

} // namespace cac::obs

#endif // CAC_OBS_METRICS_HH
