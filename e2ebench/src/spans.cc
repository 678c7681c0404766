#include "spans.hh"

#include <algorithm>

namespace e2e
{

namespace
{

/** Layers of the spans open on this thread, innermost last. */
thread_local std::vector<const char *> open_layers;

} // anonymous namespace

std::map<std::string, LayerTime>
layerTimes(const std::vector<cac::obs::TraceEvent> &events,
           const std::map<std::string, Aggregate> &aggregates,
           const std::map<std::string, std::int64_t> &charged)
{
    // Per thread, in start order with parents first: the innermost span
    // still open that contains an event is its parent.
    std::map<std::uint32_t, std::vector<std::size_t>> by_thread;
    for (std::size_t i = 0; i < events.size(); ++i)
        by_thread[events[i].tid].push_back(i);
    std::vector<double> child_ns(events.size(), 0.0);
    for (auto &[tid, order] : by_thread) {
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (events[a].startUs != events[b].startUs)
                          return events[a].startUs < events[b].startUs;
                      return events[a].endUs > events[b].endUs;
                  });
        std::vector<std::size_t> stack;
        for (std::size_t i : order) {
            const cac::obs::TraceEvent &e = events[i];
            while (!stack.empty()
                   && !(events[stack.back()].startUs <= e.startUs
                        && e.endUs <= events[stack.back()].endUs))
                stack.pop_back();
            if (!stack.empty())
                child_ns[stack.back()] += 1e3 * (e.endUs - e.startUs);
            stack.push_back(i);
        }
    }
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const cac::obs::TraceEvent &e = events[i];
        const double dur = 1e3 * static_cast<double>(e.endUs - e.startUs);
        LayerTime &t = out[e.cat];
        t.totalNs += dur;
        t.selfNs += dur - child_ns[i];
        ++t.spans;
    }
    for (const auto &[layer, ns] : charged)
        out[layer].selfNs -= static_cast<double>(ns);
    for (const auto &[layer, agg] : aggregates) {
        LayerTime &t = out[layer];
        t.totalNs += static_cast<double>(agg.ns);
        t.selfNs += static_cast<double>(agg.ns);
        t.calls += agg.calls;
    }
    return out;
}

SpanLog &
SpanLog::global()
{
    static SpanLog log;
    return log;
}

void
SpanLog::setEnabled(bool on)
{
    // The tracer is enabled once and stays on: enabling it again would
    // clear the spans of earlier traced passes. Pausing is this flag.
    if (on) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!started_) {
            tracer_.enable(kRingCapacity);
            started_ = true;
        }
    }
    enabled_.store(on, std::memory_order_relaxed);
}

void
SpanLog::addAggregate(const char *layer, std::int64_t ns,
                      std::uint64_t calls)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    Aggregate &a = aggregates_[layer];
    a.ns += ns;
    a.calls += calls;
    if (!open_layers.empty())
        charged_[open_layers.back()] += ns;
}

std::vector<cac::obs::TraceEvent>
SpanLog::events() const
{
    return tracer_.drain();
}

std::map<std::string, Aggregate>
SpanLog::aggregates() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return aggregates_;
}

std::map<std::string, std::int64_t>
SpanLog::charged() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return charged_;
}

void
SpanLog::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    tracer_.clear();
    aggregates_.clear();
    charged_.clear();
}

ScopedSpan::ScopedSpan(const char *layer, const char *name,
                       std::string label)
    : layer_(layer), name_(name), label_(std::move(label))
{
    SpanLog &log = SpanLog::global();
    if (!log.enabled())
        return;
    live_ = true;
    startUs_ = log.tracer_.nowUs();
    open_layers.push_back(layer_);
}

ScopedSpan::~ScopedSpan()
{
    if (!live_)
        return;
    open_layers.pop_back();
    SpanLog &log = SpanLog::global();
    log.tracer_.record(layer_, name_, startUs_, log.tracer_.nowUs(),
                       std::move(label_));
}

} // namespace e2e
