/**
 * @file
 * Multiprogrammed scenario engine.
 *
 * The paper's conflict phenomena were measured one program at a time;
 * this layer composes the existing workloads — Spec95 proxies
 * (workloads/spec_proxy.hh), the Figure-1 strided-vector generator
 * (workloads/stride.hh) and trace files — into one
 * *multiprogrammed* reference stream, so the sweep engine can ask
 * whether a placement scheme keeps its edge when programs share the
 * cache across context switches.
 *
 * A Scenario is built from a "mix:" label:
 *
 *   mix:PROG[+PROG...][@OPT[,OPT...]]
 *
 *   PROG := a Spec95 proxy name ("swim"), "strideN" (the Figure-1
 *           sweep with stride N elements), or "trace:PATH" (a
 *           CACTRC01 or CACTRC02 file, read under the strict policy)
 *   OPT  := q=N      context-switch quantum in records (default 50k)
 *         | n=N      records built per program (default 120k, at
 *                    most kMaxProgramRecords = 2^28; "trace:"
 *                    programs keep their file's length)
 *         | keep     warm-keep: cache contents survive a switch
 *                    (default)
 *         | flush    cold-flush: the primary level is invalidated at
 *                    every switch (a virtually-indexed cache without
 *                    ASIDs must do exactly this)
 *         | phase=N  phase shift: program i starts N*i records into
 *                    its (cyclic) reference stream, de-phasing equal
 *                    footprints
 *         | asid=N   address-space window stride in bytes (default
 *                    2 MiB): program i's addresses are relocated by
 *                    i*N, so co-scheduled programs occupy disjoint
 *                    regions
 *         | seed=S   determinism knob for the randomized proxies
 *
 *   Numbers accept k (x1000) and m (x1000000) suffixes.
 *
 * Composition is eager and deterministic: each program's trace is
 * built once, straight into the composed buffer (reserved up front, so
 * it never reallocates and a mix is resident once), relocated into its
 * ASID window and rotated by its phase shift where it lies. The
 * programs stay back to back in program order; the schedule
 * interleaves them round-robin in quantum-sized segments, each
 * pointing at its program's next records, until every program is
 * exhausted (shorter programs simply finish early). Beyond composed(),
 * composing holds only a "trace:" or "strideN" atom's file records or
 * stride addresses until they are appended.
 *
 * The composed trace plus its segment schedule make scenarios a
 * first-class sweep axis: SweepRunner::addScenarioWorkload() grids
 * (target x scenario) with per-program miss attribution in every cell,
 * and `cac_sim --scenario` reports the per-program and aggregate rows.
 */

#ifndef CAC_SCENARIO_SCENARIO_HH
#define CAC_SCENARIO_SCENARIO_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_model.hh"
#include "core/sim_target.hh"
#include "trace/record.hh"

namespace cac
{

/** What happens to cached state at a context switch. */
enum class SwitchPolicy
{
    WarmKeep, ///< contents survive the switch (physically-tagged cache)
    ColdFlush ///< primary level invalidated at every switch
};

/** Short display name ("keep", "flush"). */
std::string switchPolicyName(SwitchPolicy policy);

/** Composition knobs (the @OPT part of a mix label). */
struct ScenarioConfig
{
    std::uint64_t quantumRecords = 50 * 1000; ///< records per time slice
    SwitchPolicy policy = SwitchPolicy::WarmKeep;
    /**
     * Address-space window per program: program i's addresses are
     * relocated by i * asidStrideBytes. The default 2 MiB window
     * exceeds every proxy's footprint, so co-scheduled programs never
     * alias; windows this close still collide in a conventional index
     * (the low set bits repeat every way size), which is precisely the
     * shared-cache contention under study.
     */
    std::uint64_t asidStrideBytes = std::uint64_t{1} << 21;
    /** Records built per program (proxies and stride programs). */
    std::size_t programRecords = 120 * 1000;
    /** Program i starts i*phaseRecords into its cyclic stream. */
    std::uint64_t phaseRecords = 0;
    std::uint64_t seed = 1; ///< proxy determinism knob
};

/** A parsed (but not yet composed) scenario. */
struct ScenarioSpec
{
    std::string label;                 ///< the full "mix:..." label
    std::vector<std::string> programs; ///< program atoms, schedule order
    ScenarioConfig config;
};

/** Does @p label use the scenario grammar (a "mix:" prefix)? */
bool isScenarioLabel(const std::string &label);

/**
 * Parse a "mix:" label. On failure returns nullopt and, when @p error
 * is non-null, a one-line diagnostic naming the offending atom and the
 * known workload labels — drivers print it verbatim so an unknown
 * program never silently grids nothing.
 */
std::optional<ScenarioSpec> parseScenarioLabel(const std::string &label,
                                               std::string *error);

/** Per-program slice of a scenario replay. */
struct ScenarioProgramStats
{
    std::string name; ///< program atom ("swim", "stride512", ...)
    unsigned asid = 0;
    std::uint64_t records = 0; ///< trace records this program was fed
    /**
     * Primary-level stats delta accumulated over the program's time
     * slices (exact for functional targets, which checkpoint at every
     * segment boundary; for CPU targets the pipeline may carry a few
     * in-flight accesses across a boundary, so slices are attributed
     * at checkpoint granularity).
     */
    CacheStats l1;
};

/** Everything one replayInto() measured. */
struct ScenarioResult
{
    std::vector<ScenarioProgramStats> programs;
    std::uint64_t switches = 0; ///< program-to-program transitions
    std::uint64_t flushes = 0;  ///< flushPrimary() calls (ColdFlush)
};

/**
 * A composed multiprogrammed workload: every program's records plus
 * the context-switch schedule that interleaves them. Immutable after
 * construction, so one instance is shared (by shared_ptr) across all
 * cells of a sweep.
 */
class Scenario
{
  public:
    /**
     * One scheduled time slice of the composed trace: 16 bytes, since
     * one-record quanta make the schedule as long as the trace. A
     * program may hold at most 2^32 - 1 records (composition refuses a
     * longer one).
     */
    struct Segment
    {
        /**
         * First record in composed(): the program's start plus the
         * records its earlier slices replayed, so a program's segments
         * are ascending and contiguous inside its own range.
         */
        std::uint64_t offset = 0;
        std::uint32_t count = 0;   ///< records in this slice
        std::uint32_t program = 0; ///< index into programNames()
    };

    /**
     * Compose @p spec: builds every program's trace, relocates and
     * phase-shifts it, and schedules its slices. Fatal on an
     * unbuildable program atom (parseScenarioLabel() validates atoms
     * first, so label-driven callers get the soft diagnostic instead).
     */
    explicit Scenario(const ScenarioSpec &spec);

    const std::string &name() const { return label_; }
    const ScenarioConfig &config() const { return config_; }
    const std::vector<std::string> &programNames() const
    {
        return names_;
    }
    /**
     * Every program's records, back to back; schedule() gives the
     * order replay visits them.
     */
    const Trace &composed() const { return composed_; }
    const std::vector<Segment> &schedule() const { return schedule_; }

    /** Program-to-program transitions in the schedule. */
    std::uint64_t numSwitches() const;

    /**
     * Drive @p target through the scenario: replay every segment in
     * schedule order, applying the switch policy between programs and
     * checkpointing the target at each boundary for exact per-program
     * attribution. @p chunk_records > 0 splits every segment into
     * chunks of at most that many records (the streamed form) —
     * chunking is semantically invisible, so results are identical for
     * any chunk size. Does not call target.finish(); the caller ends
     * the stream.
     *
     * @p at_boundary, when given, runs at every chunk and segment
     * boundary with the number of records replayed since its previous
     * call, so windowed telemetry (obs/window.hh) and a sweep cell's
     * deadline track the replay without touching the per-record path.
     * An exception it throws ends the replay.
     */
    ScenarioResult replayInto(
        SimTarget &target, std::size_t chunk_records = 0,
        const std::function<void(std::size_t)> &at_boundary = {}) const;

  private:
    std::string label_;
    std::vector<std::string> names_;
    ScenarioConfig config_;
    Trace composed_;
    std::vector<Segment> schedule_;
};

/**
 * Parse and compose @p label; fatal (with the parser's diagnostic) on
 * a malformed label. The one-call form for programmatic callers.
 */
std::shared_ptr<const Scenario> buildScenario(const std::string &label);

} // namespace cac

#endif // CAC_SCENARIO_SCENARIO_HH
