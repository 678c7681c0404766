#include "wrappers.hh"

#include "core/registry.hh"

namespace e2e
{

std::int64_t
clockCostNs()
{
    static const std::int64_t cost = [] {
        std::vector<double> ns(2001);
        for (double &v : ns) {
            const Clock::time_point t0 = Clock::now();
            v = static_cast<double>(nanosBetween(t0, Clock::now()));
        }
        return static_cast<std::int64_t>(median(ns));
    }();
    return cost;
}

TracedTarget::TracedTarget(std::unique_ptr<cac::SimTarget> inner,
                           const char *layer, TimedModel *timed,
                           std::string label, bool cell_span)
    : inner_(std::move(inner)), layer_(layer), timed_(timed),
      label_(std::move(label)), born_(Clock::now())
{
    if (cell_span)
        cellSpan_.emplace("trace", "cell", label_);
}

TracedTarget::~TracedTarget()
{
    endCell();
}

std::int64_t
TracedTarget::endCell()
{
    cellSpan_.reset();
    return nanosBetween(born_, Clock::now());
}

template <typename F>
void
TracedTarget::timedCall(const char *what, F &&f)
{
    SpanLog &log = SpanLog::global();
    const ScopedSpan span(layer_, what);
    const std::int64_t model_ns = timed_ ? timed_->ns() : 0;
    const std::uint64_t model_calls = timed_ ? timed_->calls() : 0;
    const Clock::time_point t0 = Clock::now();
    f();
    callNs_ += nanosBetween(t0, Clock::now());
    if (timed_) {
        log.addAggregate("cache", timed_->ns() - model_ns,
                         timed_->calls() - model_calls);
    }
}

void
TracedTarget::accessBatch(const std::uint64_t *addrs, std::size_t n,
                          bool is_write)
{
    timedCall("accessBatch",
              [&] { inner_->accessBatch(addrs, n, is_write); });
}

void
TracedTarget::replay(const cac::TraceRecord *recs, std::size_t n)
{
    records_ += n;
    timedCall("replay", [&] { inner_->replay(recs, n); });
}

void
TracedTarget::finish()
{
    timedCall("finish", [&] { inner_->finish(); });
}

void
TracedTarget::checkpoint()
{
    timedCall("checkpoint", [&] { inner_->checkpoint(); });
}

void
TracedTarget::flushPrimary()
{
    timedCall("flushPrimary", [&] { inner_->flushPrimary(); });
}

namespace
{

/** Span layer a target label belongs to. */
const char *
layerOfTarget(const std::string &label)
{
    if (label.rfind("2lvl:", 0) == 0)
        return "hierarchy";
    if (label.rfind("mc:", 0) == 0)
        return "multicore";
    return "core";
}

} // anonymous namespace

std::unique_ptr<TracedTarget>
buildTimedTarget(const std::string &label, const cac::TargetSpec &spec,
                 bool cell_span)
{
    const cac::OrgRegistry &registry = cac::OrgRegistry::global();
    if (SpanLog::global().enabled() && registry.known(label)) {
        auto timed =
            std::make_unique<TimedModel>(registry.build(label, spec.org));
        TimedModel *raw = timed.get();
        return std::make_unique<TracedTarget>(
            std::make_unique<cac::CacheTarget>(std::move(timed)), "core",
            raw, label, cell_span);
    }
    return std::make_unique<TracedTarget>(
        registry.buildTarget(label, spec), layerOfTarget(label), nullptr,
        label, cell_span);
}

} // namespace e2e
