/**
 * @file
 * Telemetry umbrella: the runtime on/off switches and the
 * instrumentation macros the engine's boundaries use.
 *
 * Three surfaces live under src/obs/ (docs/OBSERVABILITY.md):
 *
 *  - a metrics registry (obs/metrics.hh) — counters, gauges and
 *    log-bucket histograms in per-thread shards, merged
 *    deterministically at snapshot time;
 *  - tracing spans (obs/trace_event.hh) — per-thread ring buffers of
 *    begin/end spans exported as Chrome trace-event JSON
 *    (chrome://tracing, Perfetto);
 *  - a run manifest (obs/manifest.hh) — build + dispatch provenance
 *    stamped into every emitted artifact.
 *
 * Overhead discipline: instrumentation is placed at *boundaries*
 * (chunk decode, sweep cell, scenario segment, shard phase, retry),
 * never inside the per-access hot loop. Every build compiles them in;
 * each costs one relaxed atomic load while telemetry is disabled at
 * runtime (the default). Every cac_ab (tools/ab) row replays with telemetry
 * off, and its "metrics" row and claim hold replay with the registry
 * and windows on to at least 0.90x of the same replay with it off
 * (tools/ab/verdict.hh).
 */

#ifndef CAC_OBS_OBS_HH
#define CAC_OBS_OBS_HH

#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/trace_event.hh"
#include "obs/window.hh"

/** Concatenation helpers for unique local variable names. */
#define CAC_OBS_CAT2(a, b) a##b
#define CAC_OBS_CAT(a, b) CAC_OBS_CAT2(a, b)

/**
 * Open a scoped tracing span (category, name must be string literals
 * or otherwise outlive the tracer). Records nothing unless tracing is
 * runtime-enabled when the scope opens.
 */
#define CAC_OBS_SPAN(cat, name)                                            \
    ::cac::obs::ScopedSpan CAC_OBS_CAT(cac_obs_span_, __LINE__)(cat, name)

/** Scoped span with a per-instance detail string (copied lazily). */
#define CAC_OBS_SPAN_D(cat, name, detail)                                  \
    ::cac::obs::ScopedSpan CAC_OBS_CAT(cac_obs_span_, __LINE__)(           \
        cat, name, detail)

/**
 * Bump a named counter in this thread's metrics shard. @p counter is a
 * `static const cac::obs::Counter` the call site obtains once via
 * Registry::global().counter(name).
 */
#define CAC_OBS_COUNT(counter, v) (counter).add(v)

/** Record one histogram observation. */
#define CAC_OBS_OBSERVE(hist, v) (hist).observe(v)

#endif // CAC_OBS_OBS_HH
