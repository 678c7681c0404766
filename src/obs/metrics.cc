#include "obs/metrics.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <limits>

#include "common/logging.hh"
#include "obs/json_util.hh"

namespace cac::obs
{

namespace
{

enum class Kind
{
    Counter,
    Gauge,
    Histogram
};

/** Monotonic id so thread-local shard caches never confuse a live
 *  registry with a destroyed one that happened to reuse its address. */
std::atomic<std::uint64_t> next_epoch{1};

/** One shard cell: written by its owning thread only, read by any. */
using Cell = std::atomic<std::uint64_t>;

/**
 * Add @p v to a cell only its owner thread writes. A relaxed load plus
 * store, not fetch_add: there is one writer, so no update can be lost,
 * and on x86 this compiles to the same plain add as a non-atomic cell.
 */
void
bump(Cell &cell, std::uint64_t v)
{
    cell.store(cell.load(std::memory_order_relaxed) + v,
               std::memory_order_relaxed);
}

std::uint64_t
read(const Cell &cell)
{
    return cell.load(std::memory_order_relaxed);
}

} // anonymous namespace

struct Registry::MetricDef
{
    std::string name;
    Kind kind;
    std::size_t index; ///< index into the shard array of this kind
};

/**
 * One thread's metric values. Storage is fixed at the registration
 * caps and never reallocates, so snapshot() may read cells while the
 * owning thread writes them.
 */
struct Registry::Shard
{
    /** One cell per histogram id: count, sum, log2 buckets. */
    struct HistCell
    {
        Cell count{0};
        Cell sum{0};
        std::array<Cell, kHistBuckets> buckets{};
    };

    std::array<Cell, kMaxCounters> counters{};
    std::array<Cell, kMaxGauges> gauges{};
    std::array<HistCell, kMaxHistograms> hists{};
};

Registry::Registry()
    : epoch_(next_epoch.fetch_add(1, std::memory_order_relaxed))
{
}

Registry::~Registry() = default;

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

Counter
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t next = 0;
    for (const MetricDef &def : defs_) {
        if (def.kind != Kind::Counter)
            continue;
        if (def.name == name)
            return Counter(this, def.index);
        next = std::max(next, def.index + 1);
    }
    if (next >= kMaxCounters) {
        panic("metrics: more than %zu counters registered ('%s')",
              kMaxCounters, name.c_str());
    }
    defs_.push_back({name, Kind::Counter, next});
    return Counter(this, next);
}

Gauge
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t next = 0;
    for (const MetricDef &def : defs_) {
        if (def.kind != Kind::Gauge)
            continue;
        if (def.name == name)
            return Gauge(this, def.index);
        next = std::max(next, def.index + 1);
    }
    if (next >= kMaxGauges) {
        panic("metrics: more than %zu gauges registered ('%s')",
              kMaxGauges, name.c_str());
    }
    defs_.push_back({name, Kind::Gauge, next});
    return Gauge(this, next);
}

Histogram
Registry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t next = 0;
    for (const MetricDef &def : defs_) {
        if (def.kind != Kind::Histogram)
            continue;
        if (def.name == name)
            return Histogram(this, def.index);
        next = std::max(next, def.index + 1);
    }
    if (next >= kMaxHistograms) {
        panic("metrics: more than %zu histograms registered ('%s')",
              kMaxHistograms, name.c_str());
    }
    defs_.push_back({name, Kind::Histogram, next});
    return Histogram(this, next);
}

void
Registry::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

Registry::Shard *
Registry::localShard()
{
    struct TlsEntry
    {
        std::uint64_t epoch;
        Shard *shard;
    };
    // One slot per registry instance this thread has touched. Entries
    // for destroyed registries stay inert: their epoch never matches
    // a live registry again.
    static thread_local std::vector<TlsEntry> cache;
    for (const TlsEntry &entry : cache) {
        if (entry.epoch == epoch_)
            return entry.shard;
    }
    Shard *shard;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shards_.push_back(std::make_unique<Shard>());
        shard = shards_.back().get();
    }
    cache.push_back({epoch_, shard});
    return shard;
}

void
Counter::add(std::uint64_t v) const
{
    if (!owner_ || !owner_->enabled())
        return;
    bump(owner_->localShard()->counters[id_], v);
}

void
Gauge::set(std::uint64_t v) const
{
    if (!owner_ || !owner_->enabled())
        return;
    Cell &cell = owner_->localShard()->gauges[id_];
    if (v > read(cell))
        cell.store(v, std::memory_order_relaxed);
}

void
Histogram::observe(std::uint64_t v) const
{
    if (!owner_ || !owner_->enabled())
        return;
    Registry::Shard::HistCell &cell = owner_->localShard()->hists[id_];
    bump(cell.count, 1);
    bump(cell.sum, v);
    bump(cell.buckets[std::bit_width(v)], 1);
}

MetricsSnapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    for (const MetricDef &def : defs_) {
        switch (def.kind) {
          case Kind::Counter: {
            std::uint64_t total = 0;
            for (const auto &shard : shards_)
                total += read(shard->counters[def.index]);
            snap.counters.emplace_back(def.name, total);
            break;
          }
          case Kind::Gauge: {
            std::uint64_t high = 0;
            for (const auto &shard : shards_)
                high = std::max(high, read(shard->gauges[def.index]));
            snap.gauges.emplace_back(def.name, high);
            break;
          }
          case Kind::Histogram: {
            HistSnapshot hist;
            hist.name = def.name;
            for (const auto &shard : shards_) {
                const Shard::HistCell &cell = shard->hists[def.index];
                hist.count += read(cell.count);
                hist.sum += read(cell.sum);
                for (std::size_t b = 0; b < kHistBuckets; ++b)
                    hist.buckets[b] += read(cell.buckets[b]);
            }
            snap.histograms.push_back(std::move(hist));
            break;
          }
        }
    }
    auto byName = [](const auto &a, const auto &b) {
        return a.first < b.first;
    };
    std::sort(snap.counters.begin(), snap.counters.end(), byName);
    std::sort(snap.gauges.begin(), snap.gauges.end(), byName);
    std::sort(snap.histograms.begin(), snap.histograms.end(),
              [](const HistSnapshot &a, const HistSnapshot &b) {
                  return a.name < b.name;
              });
    return snap;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto zero = [](Cell &cell) {
        cell.store(0, std::memory_order_relaxed);
    };
    for (auto &shard : shards_) {
        std::for_each(shard->counters.begin(), shard->counters.end(), zero);
        std::for_each(shard->gauges.begin(), shard->gauges.end(), zero);
        for (auto &cell : shard->hists) {
            zero(cell.count);
            zero(cell.sum);
            std::for_each(cell.buckets.begin(), cell.buckets.end(), zero);
        }
    }
}

std::size_t
Registry::shardCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return shards_.size();
}

std::uint64_t
HistSnapshot::quantile(double q) const
{
    if (count == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count));
    rank = std::max<std::uint64_t>(rank, 1);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
        seen += buckets[b];
        if (seen >= rank) {
            if (b == 0)
                return 0;
            if (b >= 64)
                return std::numeric_limits<std::uint64_t>::max();
            return (std::uint64_t{1} << b) - 1;
        }
    }
    return std::numeric_limits<std::uint64_t>::max();
}

std::uint64_t
MetricsSnapshot::counter(const std::string &name) const
{
    for (const auto &[n, v] : counters) {
        if (n == name)
            return v;
    }
    return 0;
}

std::string
metricsJson(const MetricsSnapshot &snap, int indent)
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    std::string out;
    char buf[128];

    auto scalarMap = [&](const char *key, const auto &pairs) {
        out += pad + "\"" + key + "\": {";
        bool first = true;
        for (const auto &[name, value] : pairs) {
            out += first ? "\n" : ",\n";
            first = false;
            std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
            out += pad + "  \"" + jsonEscape(name) + "\": " + buf;
        }
        out += first ? "}" : "\n" + pad + "}";
    };

    scalarMap("counters", snap.counters);
    out += ",\n";
    scalarMap("gauges", snap.gauges);
    out += ",\n" + pad + "\"histograms\": [";
    bool first_hist = true;
    for (const HistSnapshot &hist : snap.histograms) {
        out += first_hist ? "\n" : ",\n";
        first_hist = false;
        std::snprintf(buf, sizeof(buf),
                      "\"count\": %" PRIu64 ", \"sum\": %" PRIu64
                      ", \"p50\": %" PRIu64 ", \"p90\": %" PRIu64
                      ", \"p99\": %" PRIu64,
                      hist.count, hist.sum, hist.quantile(0.50),
                      hist.quantile(0.90), hist.quantile(0.99));
        out += pad + "  {\"name\": \"" + jsonEscape(hist.name) + "\", "
               + buf + ", \"buckets\": [";
        bool first_bucket = true;
        for (std::size_t b = 0; b < kHistBuckets; ++b) {
            if (hist.buckets[b] == 0)
                continue;
            std::snprintf(buf, sizeof(buf),
                          "{\"bit\": %zu, \"count\": %" PRIu64 "}", b,
                          hist.buckets[b]);
            out += first_bucket ? "" : ", ";
            first_bucket = false;
            out += buf;
        }
        out += "]}";
    }
    out += first_hist ? "]" : "\n" + pad + "]";
    return out;
}

} // namespace cac::obs
