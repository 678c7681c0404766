/**
 * @file
 * SimTarget: the "anything simulatable" abstraction behind the sweep
 * engine.
 *
 * PR 1 unified every *single-level functional* comparison behind
 * OrgRegistry + SweepRunner; this layer generalizes the engine to the
 * paper's other two evaluation vehicles so one grid executor and one
 * report path cover all of them:
 *
 *  - CacheTarget — a functional CacheModel (miss ratios, sections 2-3);
 *  - MultiCoreTarget (multicore/mc_target.hh) — a CoherentSystem: the
 *    two-level virtual-real hierarchy with Inclusion holes (one core,
 *    sections 3.1-3.3), or N cores' private L1s over a shared L2;
 *  - CpuTarget — the out-of-order core + timing L1 (IPC, section 4 and
 *    Tables 2-3), built on OooCore's streaming feed() interface.
 *
 * Targets consume workloads through two entry points: accessBatch()
 * for raw same-kind address runs (stride/random streams) and replay()
 * for instruction-trace chunks — both may be called repeatedly with
 * consecutive pieces of one stream, which is what lets the engine feed
 * traces from disk chunk-by-chunk (trace/io.hh TraceReader) without
 * materializing them. finish() flushes whatever the target still has
 * in flight (gathered runs, in-flight instructions); stats() then
 * returns the unified TargetStats row.
 *
 * Labels: OrgRegistry::buildTarget() resolves the extended grammar
 * ("a2-Hp-Sk", "2lvl:a2-Hp-Sk/a4", "cpu:8k-ipoly-cp",
 * "cpu:a2-Hp-Sk", "mc:4xa2-Hp-Sk/a4") to these classes ("2lvl:" is a
 * one-core "mc:" system reported as a Hierarchy target);
 * SweepRunner::addTarget() accepts the same labels, so `cac_sim
 * --compare` can grid hierarchies, CPUs and multicore systems next to
 * plain caches.
 */

#ifndef CAC_CORE_SIM_TARGET_HH
#define CAC_CORE_SIM_TARGET_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_model.hh"
#include "core/experiment.hh"
#include "core/registry.hh"
#include "cpu/config.hh"
#include "cpu/ooo_core.hh"
#include "multicore/coherent_system.hh"
#include "trace/io.hh"
#include "trace/record.hh"

namespace cac
{

/** Which simulation vehicle a target wraps. */
enum class TargetKind
{
    Cache,     ///< functional single-level CacheModel
    Hierarchy, ///< two-level virtual-real hierarchy
    Cpu,       ///< out-of-order core + timing L1
    MultiCore  ///< N cores: private L1s over a shared L2
};

/** Short display name ("cache", "2lvl", "cpu", "mc"). */
std::string targetKindName(TargetKind kind);

/**
 * The unified per-target statistics row every sweep cell reports.
 * l1 is always populated (the functional stats of the single level,
 * the hierarchy's L1, or the CPU's L1 data-cache array); the
 * hierarchy and CPU sections are valid when their flag is set.
 */
struct TargetStats
{
    TargetKind kind = TargetKind::Cache;
    CacheStats l1;

    bool hasHierarchy = false;
    CacheStats l2;   ///< second-level functional stats
    HoleStats holes; ///< Inclusion invalidations and holes

    bool hasCpu = false;
    CpuStats cpu; ///< IPC, cycles, branch + address prediction

    /**
     * Multicore section: per-core L1/hole rows plus inter-core
     * eviction and conflict attribution.
     * For MultiCore targets l1/l2/holes above hold the cross-core
     * aggregates, so single-target report paths work unchanged.
     */
    bool hasMultiCore = false;
    MultiCoreStats mc;
};

/**
 * Stats accumulated between two snapshots of one target: every counter
 * in @p now minus the same counter in @p then (kinds must match).
 * The sharded replay engine subtracts each shard's post-warm-up
 * snapshot from its final stats to isolate the counted slice. Only
 * Cache, Hierarchy and MultiCore targets are deltaable — CPU timing
 * state (cycles in flight) cannot be attributed to a slice, so Cpu
 * kinds are rejected.
 */
TargetStats targetStatsDelta(const TargetStats &now,
                             const TargetStats &then);

/**
 * Add every counter of @p delta into @p into (kinds must match). Not
 * for multi-core stats, which never come in more than one shard.
 */
void targetStatsAccumulate(TargetStats &into, const TargetStats &delta);

/**
 * Abstract simulatable target. Feed one workload per instance:
 * any mix of accessBatch()/replay() calls in stream order, then
 * finish(), then stats().
 */
class SimTarget
{
  public:
    virtual ~SimTarget() = default;

    /** Display name for reports (e.g. the cache geometry string). */
    virtual std::string name() const = 0;

    virtual TargetKind kind() const = 0;

    /**
     * Consume @p n same-kind accesses (the address-stream workload
     * form). May be called repeatedly with consecutive runs.
     */
    virtual void accessBatch(const std::uint64_t *addrs, std::size_t n,
                             bool is_write) = 0;

    /**
     * Consume the next @p n records of an instruction trace. Chunk
     * boundaries are semantically invisible: replaying a trace in any
     * chunking produces identical statistics.
     */
    virtual void replay(const TraceRecord *recs, std::size_t n) = 0;

    /** Flush in-flight state after the last chunk (idempotent). */
    virtual void finish() {}

    /**
     * Flush batching state (gathered runs) so stats() is exact at this
     * stream point. Unlike finish() it does not end the stream — the
     * scenario engine checkpoints at every context-switch boundary for
     * per-program attribution. Cheap and idempotent; targets without
     * batching state (the CPU pipeline keeps running) may no-op.
     */
    virtual void checkpoint() {}

    /**
     * Invalidate the primary level's cached contents — the scenario
     * engine's cold-flush context switch. Statistics survive; only the
     * cached state goes. Targets model it on their own terms: a
     * functional cache flushes its array, the hierarchy flushes its
     * (virtually-indexed) L1s and their pending holes, the CPU flushes its
     * timing L1's functional array.
     */
    virtual void flushPrimary() {}

    /** Unified statistics; complete once finish() has run. */
    virtual TargetStats stats() const = 0;
};

/** Functional single-level cache target. */
class CacheTarget : public SimTarget
{
  public:
    explicit CacheTarget(std::unique_ptr<CacheModel> model);

    std::string name() const override { return model_->name(); }
    TargetKind kind() const override { return TargetKind::Cache; }
    void accessBatch(const std::uint64_t *addrs, std::size_t n,
                     bool is_write) override;
    void replay(const TraceRecord *recs, std::size_t n) override;
    void finish() override;
    void checkpoint() override;
    void flushPrimary() override;
    TargetStats stats() const override;

    const CacheModel &model() const { return *model_; }

  private:
    std::unique_ptr<CacheModel> model_;
    /** Mixed load/store batching, restartable across replay() chunks. */
    MemRunGatherer gather_;
};

/** Out-of-order CPU target (timing model, IPC). */
class CpuTarget : public SimTarget
{
  public:
    CpuTarget(std::string name, const CpuConfig &config);

    std::string name() const override { return name_; }
    TargetKind kind() const override { return TargetKind::Cpu; }

    /**
     * Address streams reach the core as synthesized independent
     * load/store instructions (no register dependences), so functional
     * workloads can still produce an IPC row.
     */
    void accessBatch(const std::uint64_t *addrs, std::size_t n,
                     bool is_write) override;
    void replay(const TraceRecord *recs, std::size_t n) override;
    void finish() override;
    void flushPrimary() override;
    TargetStats stats() const override;

    const OooCore &core() const { return core_; }

  private:
    std::string name_;
    OooCore core_;
    CpuStats done_;
    bool finished_ = false;
};

/**
 * Replay every remaining chunk of @p reader into @p target; false
 * (with the reader's structured error in @p error) on a malformed or
 * truncated file. The one streaming drain loop every driver shares.
 * Does not call target.finish() — the caller decides when the stream
 * ends. Under a non-strict read policy, recoverable damage does not
 * fail the replay — check reader.readStats() for drops.
 */
bool tryReplayAll(TraceReader &reader, SimTarget &target,
                  Error *error = nullptr);

/** tryReplayAll(), but fatal with the reader's diagnostic instead. */
void replayAll(TraceReader &reader, SimTarget &target);

} // namespace cac

#endif // CAC_CORE_SIM_TARGET_HH
