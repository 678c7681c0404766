#!/usr/bin/env python3
"""Telemetry artifact validator for cac_sim --metrics-out/--trace-out.

Checks the two observability artifacts the driver emits
(docs/OBSERVABILITY.md):

  metrics JSON  — top-level shape (manifest + counters + gauges +
      histograms + windows), manifest provenance fields, histogram
      internal consistency (bucket counts sum to the observation
      count), and the windowed time series (consecutive indices,
      monotonically increasing stream positions, loads+stores equal to
      the window's access span, miss ratio in [0, 1]);

  trace JSON    — a loadable Chrome trace-event document (complete
      "X" events with non-negative ts/dur), per-thread span *nesting*:
      sorted by (ts asc, dur desc), every event must either nest
      inside the enclosing open span or start at/after its end. Spans
      share one truncating clock, so containment is exact and no
      epsilon is needed.

--require-span / --require-counter assert that specific
instrumentation fired, so CI catches a span that silently stops being
emitted, not just malformed files. --require-counter accepts
fnmatch-style patterns ("serve.*" passes when at least one counter
with that prefix is present).

Dependency-free by design (json/argparse only), like check_links.py.

Usage:
  tools/check_obs.py [--metrics FILE] [--trace FILE]
                     [--require-span NAME]... [--require-counter NAME]...
"""

import argparse
import fnmatch
import json
import sys

MANIFEST_STR_FIELDS = ("tool", "git_describe", "compiler", "build_type",
                       "simd_dispatch", "trace_container")
WINDOW_NUM_FIELDS = ("index", "start", "end", "loads", "stores",
                     "load_misses", "store_misses", "miss_ratio")


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        sys.exit("check_obs: cannot read %s: %s" % (path, err))


class Checker:
    def __init__(self, path):
        self.path = path
        self.failures = 0

    def fail(self, message):
        print("check_obs: FAIL %s: %s" % (self.path, message))
        self.failures += 1

    def expect(self, condition, message):
        if not condition:
            self.fail(message)
        return condition


def check_manifest(c, manifest):
    if not c.expect(isinstance(manifest, dict), "manifest is not an object"):
        return
    for field in MANIFEST_STR_FIELDS:
        c.expect(isinstance(manifest.get(field), str)
                 and manifest.get(field) != "",
                 "manifest.%s missing or empty" % field)
    c.expect(manifest.get("simd_dispatch") in ("avx2", "swar"),
             "manifest.simd_dispatch is %r, want avx2|swar"
             % manifest.get("simd_dispatch"))
    c.expect(isinstance(manifest.get("obs_compiled"), bool),
             "manifest.obs_compiled missing or not a bool")
    for field in ("metrics_schema", "trace_schema"):
        c.expect(isinstance(manifest.get(field), int)
                 and manifest.get(field) >= 1,
                 "manifest.%s missing or < 1" % field)


def check_scalar_map(c, node, what):
    if not c.expect(isinstance(node, dict), "%s is not an object" % what):
        return
    for name, value in node.items():
        c.expect(isinstance(value, int) and value >= 0,
                 "%s[%r] = %r is not a non-negative integer"
                 % (what, name, value))


def check_histograms(c, hists):
    if not c.expect(isinstance(hists, list), "histograms is not a list"):
        return
    for hist in hists:
        name = hist.get("name", "<unnamed>")
        for field in ("count", "sum", "p50", "p90", "p99"):
            c.expect(isinstance(hist.get(field), int),
                     "histogram %s.%s missing" % (name, field))
        buckets = hist.get("buckets")
        if not c.expect(isinstance(buckets, list),
                        "histogram %s.buckets is not a list" % name):
            continue
        total = sum(b.get("count", 0) for b in buckets)
        c.expect(total == hist.get("count"),
                 "histogram %s: bucket counts sum to %d, count says %d"
                 % (name, total, hist.get("count")))


def check_window_series(c, block):
    label = "%s x %s" % (block.get("workload"), block.get("target"))
    series = block.get("series")
    if not c.expect(isinstance(series, list),
                    "windows[%s].series is not a list" % label):
        return
    prev_end = None
    for i, w in enumerate(series):
        where = "windows[%s][%d]" % (label, i)
        for field in WINDOW_NUM_FIELDS:
            if not c.expect(isinstance(w.get(field), (int, float)),
                            "%s.%s missing" % (where, field)):
                return
        c.expect(w["index"] == i,
                 "%s.index is %d, want consecutive %d"
                 % (where, w["index"], i))
        c.expect(w["start"] < w["end"],
                 "%s spans [%d, %d), not increasing"
                 % (where, w["start"], w["end"]))
        if prev_end is not None:
            c.expect(w["start"] == prev_end,
                     "%s starts at %d, previous window ended at %d"
                     % (where, w["start"], prev_end))
        prev_end = w["end"]
        c.expect(w["loads"] + w["stores"] == w["end"] - w["start"],
                 "%s: loads+stores = %d but the window spans %d accesses"
                 % (where, w["loads"] + w["stores"],
                    w["end"] - w["start"]))
        c.expect(0.0 <= w["miss_ratio"] <= 1.0,
                 "%s.miss_ratio = %r out of [0, 1]"
                 % (where, w["miss_ratio"]))


def check_metrics_file(path, require_counters):
    c = Checker(path)
    doc = load_json(path)
    for key in ("manifest", "counters", "gauges", "histograms", "windows"):
        if not c.expect(key in doc, "missing top-level %r" % key):
            return c.failures
    check_manifest(c, doc["manifest"])
    check_scalar_map(c, doc["counters"], "counters")
    check_scalar_map(c, doc["gauges"], "gauges")
    check_histograms(c, doc["histograms"])
    if c.expect(isinstance(doc["windows"], list),
                "windows is not a list"):
        for block in doc["windows"]:
            check_window_series(c, block)
    for name in require_counters:
        # fnmatch-style patterns ("serve.*") match any counter with
        # that prefix; exact names keep exact semantics.
        if any(ch in name for ch in "*?["):
            hits = fnmatch.filter(doc["counters"].keys(), name)
            c.expect(bool(hits),
                     "no counter matches pattern %r (have %s)"
                     % (name, ", ".join(sorted(doc["counters"])) or
                        "none"))
        else:
            c.expect(name in doc["counters"],
                     "required counter %r not present" % name)
    if c.failures == 0:
        windows = sum(len(b.get("series", [])) for b in doc["windows"])
        print("check_obs: %s ok (%d counters, %d histograms, %d windows)"
              % (path, len(doc["counters"]), len(doc["histograms"]),
                 windows))
    return c.failures


def check_span_nesting(c, events):
    """Stack check per thread: spans must nest or be disjoint."""
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    for tid, spans in sorted(by_tid.items()):
        # Parents first: earlier start, then longer duration.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in spans:
            end = e["ts"] + e["dur"]
            while stack and e["ts"] >= stack[-1]:
                stack.pop()
            if stack and end > stack[-1]:
                c.fail("tid %s: span %r [%d, %d) overlaps the enclosing "
                       "span ending at %d"
                       % (tid, e["name"], e["ts"], end, stack[-1]))
                return
            stack.append(end)


def check_trace_file(path, require_spans):
    c = Checker(path)
    doc = load_json(path)
    events = doc.get("traceEvents")
    if not c.expect(isinstance(events, list),
                    "traceEvents missing or not a list"):
        return c.failures
    for i, e in enumerate(events):
        where = "traceEvents[%d]" % i
        if not c.expect(isinstance(e, dict), "%s not an object" % where):
            return c.failures
        c.expect(e.get("ph") == "X", "%s.ph is %r, want complete "
                 "events ('X')" % (where, e.get("ph")))
        for field in ("name", "cat"):
            c.expect(isinstance(e.get(field), str) and e.get(field),
                     "%s.%s missing" % (where, field))
        for field in ("ts", "dur", "tid"):
            if not c.expect(isinstance(e.get(field), int)
                            and e.get(field) >= 0,
                            "%s.%s missing or negative" % (where, field)):
                return c.failures
    check_span_nesting(c, events)
    other = doc.get("otherData", {})
    c.expect(isinstance(other.get("dropped_events"), int),
             "otherData.dropped_events missing")
    check_manifest(c, other.get("manifest"))
    names = set(e["name"] for e in events if isinstance(e.get("name"), str))
    for name in require_spans:
        c.expect(name in names, "required span %r not present (have %s)"
                 % (name, ", ".join(sorted(names)) or "none"))
    if c.failures == 0:
        print("check_obs: %s ok (%d spans over %d thread(s), %d dropped)"
              % (path, len(events),
                 len(set(e["tid"] for e in events)),
                 other.get("dropped_events")))
    return c.failures


def main():
    parser = argparse.ArgumentParser(
        description="validate cac_sim telemetry artifacts")
    parser.add_argument("--metrics", help="metrics JSON (--metrics-out)")
    parser.add_argument("--trace", help="Chrome trace JSON (--trace-out)")
    parser.add_argument("--require-span", action="append", default=[],
                        help="span name that must appear in the trace")
    parser.add_argument("--require-counter", action="append", default=[],
                        help="counter that must appear in the metrics")
    args = parser.parse_args()
    if not args.metrics and not args.trace:
        parser.error("nothing to check: give --metrics and/or --trace")

    failures = 0
    if args.metrics:
        failures += check_metrics_file(args.metrics, args.require_counter)
    if args.trace:
        failures += check_trace_file(args.trace, args.require_span)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
