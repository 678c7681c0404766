/**
 * @file
 * Self-tests of the benchmark's own statistics, output checks and span
 * accounting. Build and run from the benchmark's build directory:
 *
 *   cmake --build <dir> --target e2e_selftest && <dir>/e2e_selftest
 *
 * Exits non-zero (listing each failure) when any check fails.
 */

#include <cmath>
#include <cstdio>
#include <thread>

#include "report.hh"
#include "spans.hh"
#include "workloads.hh"

namespace
{

int failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__,    \
                         __LINE__, #cond);                                 \
            ++failures;                                                    \
        }                                                                  \
    } while (0)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

void
testOrderStatistics()
{
    CHECK(near(e2e::median({3, 1, 2}), 2));
    CHECK(near(e2e::median({4, 1, 2, 3}), 2.5));
    CHECK(near(e2e::quantile({0, 10}, 0.25), 2.5));
    CHECK(near(e2e::median({}), 0));
}

cac::obs::TraceEvent
event(const char *layer, std::uint64_t start_us, std::uint64_t end_us,
      std::uint32_t tid = 0)
{
    cac::obs::TraceEvent e;
    e.cat = layer;
    e.startUs = start_us;
    e.endUs = end_us;
    e.tid = tid;
    return e;
}

void
testSelfTime()
{
    // core [0,100) us holds trace spans [10,40) and [50,60) plus 5 us
    // of summed cache calls: core self time is 100 - 30 - 10 - 5 = 55.
    // The serve span on another thread overlaps in time but is nobody's
    // child.
    const std::vector<cac::obs::TraceEvent> events = {
        event("core", 0, 100), event("trace", 10, 40),
        event("trace", 50, 60), event("serve", 20, 30, 1)};
    const std::map<std::string, e2e::Aggregate> agg = {{"cache", {5000, 3}}};
    const std::map<std::string, std::int64_t> charged = {{"core", 5000}};
    const auto t = e2e::layerTimes(events, agg, charged);
    CHECK(near(t.at("core").selfNs, 55000));
    CHECK(near(t.at("core").totalNs, 100000));
    CHECK(near(t.at("trace").selfNs, 40000));
    CHECK(t.at("trace").spans == 2);
    CHECK(near(t.at("serve").selfNs, 10000));
    CHECK(near(t.at("cache").selfNs, 5000));
    CHECK(t.at("cache").calls == 3);

    // Self times add up to the threads' root-span wall time.
    double self = 0;
    for (const auto &[layer, lt] : t)
        self += lt.selfNs;
    CHECK(near(self, 110000));
}

void
testRecorderNesting()
{
    e2e::SpanLog &log = e2e::SpanLog::global();
    log.reset();
    log.setEnabled(true);
    {
        e2e::ScopedSpan outer("core", "outer");
        {
            e2e::ScopedSpan inner("cache", "inner", "label");
            log.addAggregate("index", 7, 2);
        }
        log.addAggregate("index", 4, 1);
        std::thread([] { e2e::ScopedSpan other("serve", "thread"); })
            .join();
    }
    log.setEnabled(false);
    {
        e2e::ScopedSpan ignored("core", "disabled");
    }
    log.addAggregate("index", 100, 1); // not recording: ignored
    const std::vector<cac::obs::TraceEvent> events = log.events();
    CHECK(events.size() == 3);
    const cac::obs::TraceEvent *outer = nullptr, *inner = nullptr,
                               *other = nullptr;
    for (const cac::obs::TraceEvent &e : events) {
        const std::string name = e.name;
        outer = name == "outer" ? &e : outer;
        inner = name == "inner" ? &e : inner;
        other = name == "thread" ? &e : other;
    }
    CHECK(outer && inner && other);
    if (outer && inner && other) {
        CHECK(inner->startUs >= outer->startUs);
        CHECK(inner->endUs <= outer->endUs);
        CHECK(inner->detail == "label");
        CHECK(other->tid != outer->tid);
    }
    // Summed calls are charged to the layer of the span open at the
    // time: 7 ns inside "inner" (cache), 4 ns inside "outer" (core).
    CHECK(log.aggregates().at("index").calls == 3);
    CHECK(log.aggregates().at("index").ns == 11);
    CHECK(log.charged().at("cache") == 7);
    CHECK(log.charged().at("core") == 4);
    log.reset();
    CHECK(log.events().empty());
    CHECK(log.aggregates().empty());
}

cac::TargetStats
mcStats(std::uint64_t core0_loads, std::uint64_t core1_loads)
{
    cac::TargetStats s;
    s.kind = cac::TargetKind::MultiCore;
    s.hasHierarchy = true;
    s.hasMultiCore = true;
    s.mc.cores.resize(2);
    s.mc.cores[0].l1.loads = core0_loads;
    s.mc.cores[0].holes.holesCreated = 2;
    s.mc.cores[1].l1.loads = core1_loads;
    s.mc.cores[1].holes.holesCreated = 3;
    s.l1.loads = 10 + 20;
    s.holes.holesCreated = 5;
    return s;
}

void
testOutputChecks()
{
    CHECK(e2e::perCoreRowsSum(mcStats(10, 20)));
    CHECK(!e2e::perCoreRowsSum(mcStats(10, 21)));
    CHECK(!e2e::perCoreRowsSum(cac::TargetStats{}));

    cac::TargetStats a;
    a.kind = cac::TargetKind::Hierarchy;
    a.hasHierarchy = true;
    a.l1.loads = 5;
    a.l2.loadMisses = 2;
    cac::TargetStats b = mcStats(10, 20);
    b.l1 = a.l1;
    b.l2 = a.l2;
    b.holes = a.holes;
    CHECK(e2e::sameHierarchyStats(a, b)); // kind and per-core rows aside
    b.l2.loadMisses = 3;
    CHECK(!e2e::sameHierarchyStats(a, b));

    cac::SweepCell c1, c2;
    c1.workload = c2.workload = "swim";
    c1.org = "a2";
    c2.org = "a2-Hp-Sk";
    c2.target.l1.loads = 1;
    const std::string d = e2e::sweepDigest({c1, c2});
    CHECK(d == e2e::sweepDigest({c1, c2}));
    CHECK(d != e2e::sweepDigest({c2, c1}));
    c2.target.l1.loadMisses = 1;
    CHECK(d != e2e::sweepDigest({c1, c2}));

    // A failed operation counts once and marks the run incorrect; a
    // check that belongs to no operation marks the run incorrect
    // without adding a failed operation, so failed <= attempted.
    e2e::Outcome out;
    out.op(true);
    CHECK(out.correct() && out.attempted() == 1 && out.failed() == 0);
    out.op(false, "one failed op");
    CHECK(!out.correct() && out.attempted() == 2 && out.failed() == 1);
    e2e::Outcome grid;
    grid.op(true);
    grid.check(true, "passes");
    CHECK(grid.correct() && grid.failed() == 0);
    grid.check(false, "grid-wide comparison");
    CHECK(!grid.correct() && grid.attempted() == 1 && grid.failed() == 0);
    CHECK(grid.problems().size() == 1);
}

} // anonymous namespace

int
main()
{
    testOrderStatistics();
    testSelfTime();
    testRecorderNesting();
    testOutputChecks();
    if (failures == 0)
        std::printf("e2e_selftest: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
