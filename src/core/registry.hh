/**
 * @file
 * Name -> builder registry of cache organizations and simulation
 * targets.
 *
 * The registry is the single place that knows how to turn an
 * organization label ("a2-Hp-Sk", "victim", ...) into a CacheModel.
 * Every driver — cac_sim, the miss-ratio benches, the examples and the
 * SweepRunner — builds caches through it, so adding a new organization
 * means adding exactly one registration here (or calling add() at
 * startup for out-of-tree organizations).
 *
 * Two kinds of entries exist:
 *  - exact labels ("dm", "full", "victim", "hash-rehash", "column-poly");
 *  - families ("aN", "aN-Hx-Sk", ...) whose associativity N is parsed
 *    out of the label, so "a2-Hp-Sk", "a8-Hp-Sk" and "a16-Hp-Sk" all
 *    resolve through one entry.
 *
 * On top of the organization entries sits the *target* grammar
 * (knownTarget()/buildTarget()): a label optionally prefixed with
 * "2lvl:" or "cpu:" resolves to a SimTarget — a functional single-level
 * cache, a two-level virtual-real hierarchy, or the out-of-order CPU
 * stack — all drivable by the same sweep engine (core/sim_target.hh).
 */

#ifndef CAC_CORE_REGISTRY_HH
#define CAC_CORE_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_model.hh"

namespace cac
{

class SimTarget;

/** Parameters shared by all organizations in a comparison. */
struct OrgSpec
{
    std::uint64_t sizeBytes = 8 * 1024;
    std::uint64_t blockBytes = 32;
    unsigned ways = 2;           ///< ignored by "full"
    unsigned hashBlockBits = 14; ///< v minus offset bits (19 - 5)
    unsigned victimBlocks = 8;   ///< victim-buffer lines ("victim")
    bool writeAllocate = true;
};

/**
 * Parameters for extended simulation targets (buildTarget()). The
 * embedded OrgSpec configures single-level organizations, the L1 of
 * "2lvl:" hierarchies, and the L1 of "cpu:aN..." cores; the extra
 * fields configure the second level and the page mapping.
 */
struct TargetSpec
{
    OrgSpec org;
    std::uint64_t l2SizeBytes = 256 * 1024; ///< "2lvl:" second level
    unsigned l2Ways = 2; ///< L2 ways for labels that don't encode them
    std::uint64_t pageBytes = 4096;  ///< virtual-real page size
    std::uint64_t pageSeed = 12345;  ///< page-map determinism knob
    /**
     * "mc:" ASID-window stride demultiplexing a stream onto cores
     * (core = (vaddr / window) % cores). It must equal the replayed
     * mix's asidStrideBytes (cac_sim --scenario sets it so) for the
     * mix's programs to round-robin across cores; the default matches
     * the Scenario engine's default stride.
     */
    std::uint64_t mcWindowBytes = std::uint64_t{1} << 21;
};

/** Registry of named cache organizations. */
class OrgRegistry
{
  public:
    /** Build a model for @p label under @p spec. */
    using Builder = std::function<std::unique_ptr<CacheModel>(
        const std::string &label, const OrgSpec &spec)>;

    /** Does @p label belong to this entry? */
    using Matcher = std::function<bool(const std::string &label)>;

    /** One registered organization (or family of organizations). */
    struct Entry
    {
        std::string pattern;     ///< display form, e.g. "aN-Hp-Sk"
        std::string example;     ///< a concrete instance, e.g. "a2-Hp-Sk"
        std::string description; ///< one-line summary for usage text
        Matcher matches;
        Builder build;
    };

    /**
     * The process-wide registry, pre-populated with every organization
     * the paper compares. Registration is not thread safe; concurrent
     * build() calls on a fully-registered registry are.
     */
    static OrgRegistry &global();

    /** Register an exact label. */
    void add(const std::string &label, const std::string &description,
             Builder build);

    /**
     * Register a family of labels.
     *
     * @param pattern display form for usage strings ("aN-Hp").
     * @param example a concrete member used by docs and self-tests.
     */
    void addFamily(const std::string &pattern, const std::string &example,
                   const std::string &description, Matcher matches,
                   Builder build);

    /** Is @p label resolvable? */
    bool known(const std::string &label) const;

    /** Build @p label under @p spec; fatal on unknown labels. */
    std::unique_ptr<CacheModel> build(const std::string &label,
                                      const OrgSpec &spec) const;

    /**
     * Is @p label resolvable as a simulation target? Accepts every
     * known() organization label plus the extended grammar:
     *  - "2lvl:L1/L2" — two-level virtual-real hierarchy, where L1 and
     *    L2 are organization labels;
     *  - "cpu:CONFIG" — the out-of-order core, where CONFIG is a Table-2
     *    configuration name ("8k-ipoly-cp", ...) or an associativity
     *    family label ("a2-Hp-Sk") applied to the spec's L1 geometry;
     *  - "mc:CORESxL1/L2" — CORES cores with private L1s over one
     *    shared L2 (e.g. "mc:4xa2-Hp-Sk/a4").
     */
    bool knownTarget(const std::string &label) const;

    /**
     * Build a simulation target for @p label under @p spec; fatal on
     * unknown labels (implemented in core/sim_target.cc).
     */
    std::unique_ptr<SimTarget> buildTarget(const std::string &label,
                                           const TargetSpec &spec) const;

    /** All entries, in registration order. */
    const std::vector<Entry> &entries() const { return entries_; }

    /** Display patterns in registration order (usage strings). */
    std::vector<std::string> patterns() const;

    /** One buildable label per entry, in registration order. */
    std::vector<std::string> exampleLabels() const;

  private:
    OrgRegistry(); ///< registers the built-in organizations

    const Entry *find(const std::string &label) const;

    std::vector<Entry> entries_;
};

/** Build a registered organization (shorthand for the global registry). */
std::unique_ptr<CacheModel>
makeOrganization(const std::string &label, const OrgSpec &spec);

/**
 * Split an associativity-family label ("a4-Hp-Sk") into its way count
 * and scheme suffix ("Hp-Sk"; empty for bare "aN"). The single parser
 * for the aN grammar — the registry families and the "cpu:aN" target
 * grammar both resolve through it.
 *
 * @return false when @p label is not of that shape.
 */
bool splitAssocLabel(const std::string &label, unsigned &ways,
                     std::string &suffix);

/** The comparison set used by the miss-ratio benchmarks. */
std::vector<std::string> standardComparisonLabels();

/**
 * The extended comparison set of `cac_sim --compare`: every
 * standardComparisonLabels() organization plus representative two-level
 * hierarchy and CPU targets.
 */
std::vector<std::string> standardTargetLabels();

/**
 * The target set `cac_sim --scenario --compare` grids against a
 * multiprogrammed mix (scenario/scenario.hh grammar): the functional
 * single-level organizations, which the driver wraps in a
 * ConflictProfiler for aggregate conflict attribution of the mixed
 * stream. One source of truth so the CLI, the perf bench and the docs
 * agree on the comparison.
 */
std::vector<std::string> scenarioComparisonLabels();

} // namespace cac

#endif // CAC_CORE_REGISTRY_HH
