/**
 * @file
 * MultiCoreTarget: a CoherentSystem behind the SimTarget interface, so
 * sweeps, scenarios, the conflict profiler and the CLI drive it
 * exactly like a single cache.
 *
 * Labels: OrgRegistry::buildTarget() resolves
 * `mc:<cores>x<l1-org>/<l2-org>` (e.g. "mc:4xa2-Hp-Sk/a4") to this
 * class; `cac_sim --cores N` rewrites plain organization labels into
 * the grammar. Streams demultiplex onto cores by ASID window (see
 * CoherentSystem), so a Scenario mix's programs round-robin across
 * cores with no scheduler changes, starting at the core of the window
 * the first program's data starts in (core 2 for the Spec95 proxies).
 * The same routing keeps every block in one core's L1: the cores share
 * the L2 and its capacity, never a line, so the per-core rows report
 * L2 pressure (inter-core evictions and conflict misses), not
 * coherence traffic.
 *
 * `2lvl:<l1-org>/<l2-org>` builds the same class over a one-core
 * system and reports it as a TargetKind::Hierarchy: no per-core rows,
 * so it time-shards like a plain cache and prints the plain two-level
 * report.
 */

#ifndef CAC_MULTICORE_MC_TARGET_HH
#define CAC_MULTICORE_MC_TARGET_HH

#include <memory>
#include <string>

#include "core/sim_target.hh"
#include "multicore/coherent_system.hh"

namespace cac
{

/** CoherentSystem target: the two-level hierarchy or N cores. */
class MultiCoreTarget : public SimTarget
{
  public:
    /**
     * @param kind MultiCore, or Hierarchy for a one-core system
     *        reported without its multicore section.
     */
    MultiCoreTarget(std::string name,
                    std::unique_ptr<CoherentSystem> system,
                    TargetKind kind = TargetKind::MultiCore);

    std::string name() const override { return name_; }
    TargetKind kind() const override { return kind_; }
    void accessBatch(const std::uint64_t *addrs, std::size_t n,
                     bool is_write) override;
    void replay(const TraceRecord *recs, std::size_t n) override;
    void finish() override;
    void checkpoint() override;
    void flushPrimary() override;
    TargetStats stats() const override;

    CoherentSystem &system() { return *system_; }
    const CoherentSystem &system() const { return *system_; }

  private:
    std::string name_;
    std::unique_ptr<CoherentSystem> system_;
    TargetKind kind_;
    /** Mixed load/store batching, restartable across replay() chunks. */
    MemRunGatherer gather_;
};

} // namespace cac

#endif // CAC_MULTICORE_MC_TARGET_HH
