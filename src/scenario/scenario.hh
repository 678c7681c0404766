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
 * built once, relocated into its ASID window, rotated by its phase
 * shift, and interleaved round-robin in quantum-sized segments until
 * every program is exhausted (shorter programs simply finish early).
 *
 * Composition happens in place, so a mix is resident once: every
 * program is appended straight into the composed buffer (reserved up
 * front, so it never reallocates), relocated and rotated where it
 * lies, and the buffer is then permuted into schedule order block by
 * block. A block is the largest divisor of the quantum in [256, 8192]
 * records, or the quantum itself when it has none. Beyond composed(),
 * composing holds under (k+1) blocks of records for k programs (each
 * program's padding to whole blocks, plus one block of scratch), one
 * table entry per block, and, for a "trace:" or "strideN" atom, the
 * file's records or the stride's addresses until they are appended.
 *
 * The composed trace plus its segment schedule make scenarios a
 * first-class sweep axis: SweepRunner::addScenarioWorkload() grids
 * (target x scenario) with per-program miss attribution in every cell,
 * and `cac_sim --scenario` reports the per-program and aggregate rows.
 */

#ifndef CAC_SCENARIO_SCENARIO_HH
#define CAC_SCENARIO_SCENARIO_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_model.hh"
#include "core/sim_target.hh"
#include "trace/record.hh"

namespace cac::obs
{
class WindowSampler;
} // namespace cac::obs

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
 * A composed multiprogrammed workload: the interleaved trace plus the
 * context-switch schedule. Immutable after construction, so one
 * instance is shared (by shared_ptr) across all cells of a sweep.
 */
class Scenario
{
  public:
    /** One scheduled time slice of the composed trace. */
    struct Segment
    {
        unsigned program = 0;   ///< index into programNames()
        std::size_t offset = 0; ///< first record in composed()
        std::size_t count = 0;  ///< records in this slice
    };

    /**
     * Compose @p spec: builds every program's trace, relocates and
     * phase-shifts it, and interleaves. Fatal on an unbuildable
     * program atom (parseScenarioLabel() validates atoms first, so
     * label-driven callers get the soft diagnostic instead).
     */
    explicit Scenario(const ScenarioSpec &spec);

    const std::string &name() const { return label_; }
    const ScenarioConfig &config() const { return config_; }
    const std::vector<std::string> &programNames() const
    {
        return names_;
    }
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
     * @p sampler, when given, is poked at every chunk and segment
     * boundary so windowed telemetry (obs/window.hh) tracks the replay
     * without touching the per-record path.
     */
    ScenarioResult replayInto(SimTarget &target,
                              std::size_t chunk_records = 0,
                              obs::WindowSampler *sampler = nullptr) const;

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
