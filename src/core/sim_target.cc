#include "core/sim_target.hh"

#include <algorithm>
#include <optional>

#include "common/logging.hh"
#include "hierarchy/page_map.hh"
#include "index/factory.hh"
#include "multicore/mc_target.hh"

namespace cac
{

namespace
{

/** Run size for synthesized record batches (the engine's unit). */
constexpr std::size_t kMaxRun = MemRunGatherer::kMaxRun;

constexpr const char *k2lvlPrefix = "2lvl:";
constexpr const char *kCpuPrefix = "cpu:";
constexpr const char *kMcPrefix = "mc:";

/** Cap on mc: core counts. */
constexpr unsigned kMaxCores = CoherentSystem::kMaxCores;

/** Strip @p prefix from @p label into @p rest. */
bool
stripPrefix(const std::string &label, const char *prefix,
            std::string &rest)
{
    const std::size_t len = std::char_traits<char>::length(prefix);
    if (label.compare(0, len, prefix) != 0)
        return false;
    rest = label.substr(len);
    return true;
}

/** Split "L1/L2" (the 2lvl: payload); false when no '/' separates. */
bool
splitHierarchyLabels(const std::string &rest, std::string &l1,
                     std::string &l2)
{
    const std::size_t slash = rest.find('/');
    if (slash == std::string::npos || slash == 0
        || slash + 1 == rest.size()) {
        return false;
    }
    l1 = rest.substr(0, slash);
    l2 = rest.substr(slash + 1);
    return true;
}

/**
 * Split "<cores>x<l1>/<l2>" (the mc: payload); false on a malformed
 * core count or hierarchy part.
 */
bool
splitMcLabel(const std::string &rest, unsigned &cores, std::string &l1,
             std::string &l2)
{
    const std::size_t x = rest.find('x');
    if (x == std::string::npos || x == 0 || x + 1 == rest.size())
        return false;
    cores = 0;
    for (std::size_t i = 0; i < x; ++i) {
        if (rest[i] < '0' || rest[i] > '9')
            return false;
        cores = cores * 10 + static_cast<unsigned>(rest[i] - '0');
        if (cores > kMaxCores)
            return false;
    }
    if (cores == 0)
        return false;
    return splitHierarchyLabels(rest.substr(x + 1), l1, l2);
}

/**
 * The CoherentSystem target behind both "2lvl:" (one core, reported as
 * a Hierarchy) and "mc:" (@p cores cores): @p l1_label private L1s
 * over one shared @p l2_label L2.
 */
std::unique_ptr<SimTarget>
buildCoherentTarget(const OrgRegistry &registry, const std::string &label,
                    unsigned cores, const std::string &l1_label,
                    const std::string &l2_label, const TargetSpec &spec,
                    TargetKind kind)
{
    OrgSpec l2_spec = spec.org;
    l2_spec.sizeBytes = spec.l2SizeBytes;
    if (spec.l2Ways < 1)
        fatal("target '%s': l2Ways must be >= 1", label.c_str());
    l2_spec.ways = spec.l2Ways;
    // Hashed L2 indices need input bits that cover the (larger) L2
    // index plus some tag bits (the holes experiments' setBits + 6
    // convention). The label may encode its own associativity
    // ("a1-Hp") or imply one ("dm"), so probe the built geometry for
    // the real set count rather than trusting spec.l2Ways.
    std::unique_ptr<CacheModel> l2 = registry.build(l2_label, l2_spec);
    l2_spec.hashBlockBits =
        std::max(spec.org.hashBlockBits, l2->geometry().setBits() + 6);
    l2 = registry.build(l2_label, l2_spec);

    // One private L1 per core, identical spec (and seed: every core's
    // cache hashes addresses the same way, like real replicated
    // arrays).
    std::vector<std::unique_ptr<CacheModel>> l1s;
    l1s.reserve(cores);
    for (unsigned c = 0; c < cores; ++c)
        l1s.push_back(registry.build(l1_label, spec.org));

    std::string display = l1s.front()->name() + " / " + l2->name();
    if (kind == TargetKind::MultiCore)
        display = std::to_string(cores) + "x " + display;
    auto system = std::make_unique<CoherentSystem>(
        std::move(l1s), std::move(l2),
        PageMap(spec.pageBytes, std::uint64_t{1} << 20, spec.pageSeed),
        spec.mcWindowBytes);
    return std::make_unique<MultiCoreTarget>(display, std::move(system),
                                             kind);
}

/**
 * Resolve a "cpu:" payload to a CpuConfig: either a Table-2
 * configuration name, or an associativity-family organization label
 * ("a2-Hp-Sk") applied to the spec's L1 geometry.
 */
std::optional<CpuConfig>
cpuConfigFor(const std::string &rest, const TargetSpec &spec)
{
    if (CpuConfig::knownTableConfig(rest))
        return CpuConfig::tableConfig(rest);

    // aN[-scheme]: associativity from the label, geometry from the
    // spec. Same parser as the registry's organization families.
    unsigned ways = 0;
    std::string suffix;
    if (!splitAssocLabel(rest, ways, suffix))
        return std::nullopt;
    const std::optional<IndexKind> kind = tryParseIndexKind(suffix);
    if (!kind)
        return std::nullopt;

    CpuConfig cfg = CpuConfig::paperDefault();
    cfg.cacheBytes = spec.org.sizeBytes;
    cfg.blockBytes = spec.org.blockBytes;
    cfg.cacheWays = ways;
    cfg.indexKind = *kind;
    return cfg;
}

} // anonymous namespace

TargetStats
targetStatsDelta(const TargetStats &now, const TargetStats &then)
{
    CAC_ASSERT(now.kind == then.kind);
    CAC_ASSERT(now.kind != TargetKind::Cpu);
    TargetStats d;
    d.kind = now.kind;
    d.l1 = cacheStatsDelta(now.l1, then.l1);
    d.hasHierarchy = now.hasHierarchy;
    if (now.hasHierarchy) {
        d.l2 = cacheStatsDelta(now.l2, then.l2);
        d.holes = holeStatsDelta(now.holes, then.holes);
    }
    d.hasMultiCore = now.hasMultiCore;
    if (now.hasMultiCore)
        d.mc = multiCoreStatsDelta(now.mc, then.mc);
    return d;
}

void
targetStatsAccumulate(TargetStats &into, const TargetStats &delta)
{
    CAC_ASSERT(into.kind == delta.kind);
    CAC_ASSERT(into.kind != TargetKind::Cpu);
    // Only a second shard is ever added, and runShards() rejects a
    // multi-core target before one exists: inter-core attribution does
    // not split into slices.
    CAC_ASSERT(!delta.hasMultiCore);
    cacheStatsAccumulate(into.l1, delta.l1);
    if (delta.hasHierarchy) {
        into.hasHierarchy = true;
        cacheStatsAccumulate(into.l2, delta.l2);
        holeStatsAccumulate(into.holes, delta.holes);
    }
}

std::string
targetKindName(TargetKind kind)
{
    switch (kind) {
      case TargetKind::Cache:
        return "cache";
      case TargetKind::Hierarchy:
        return "2lvl";
      case TargetKind::Cpu:
        return "cpu";
      case TargetKind::MultiCore:
        return "mc";
    }
    return "?";
}

// ---- CacheTarget -----------------------------------------------------

CacheTarget::CacheTarget(std::unique_ptr<CacheModel> model)
    : model_(std::move(model))
{
    CAC_ASSERT(model_ != nullptr);
}

void
CacheTarget::accessBatch(const std::uint64_t *addrs, std::size_t n,
                         bool is_write)
{
    // Direct batches must not reorder against gathered replay() runs.
    gather_.flush(*model_);
    model_->accessBatch(addrs, n, is_write);
}

void
CacheTarget::replay(const TraceRecord *recs, std::size_t n)
{
    // runTraceMemory()'s hot path, restartable across chunk boundaries
    // (the shared MemRunGatherer is the single copy of the batching
    // rule).
    gather_.replay(*model_, recs, n);
}

void
CacheTarget::finish()
{
    gather_.flush(*model_);
}

void
CacheTarget::checkpoint()
{
    gather_.flush(*model_);
}

void
CacheTarget::flushPrimary()
{
    // Issue the gathered run first: those accesses happened before the
    // context switch, so they must see the pre-flush contents.
    gather_.flush(*model_);
    model_->flush();
}

TargetStats
CacheTarget::stats() const
{
    TargetStats s;
    s.kind = TargetKind::Cache;
    s.l1 = model_->stats();
    return s;
}

// ---- CpuTarget -------------------------------------------------------

CpuTarget::CpuTarget(std::string name, const CpuConfig &config)
    : name_(std::move(name)), core_(config)
{
    core_.beginStream();
}

void
CpuTarget::accessBatch(const std::uint64_t *addrs, std::size_t n,
                       bool is_write)
{
    // Synthesize standalone memory instructions in bounded chunks, so
    // address workloads still produce an IPC row without materializing
    // a trace.
    std::vector<TraceRecord> chunk;
    chunk.reserve(std::min(n, kMaxRun));
    std::size_t i = 0;
    while (i < n) {
        chunk.clear();
        const std::size_t end = std::min(n, i + kMaxRun);
        for (; i < end; ++i) {
            TraceRecord rec;
            rec.op = is_write ? OpClass::Store : OpClass::Load;
            rec.addr = addrs[i];
            chunk.push_back(rec);
        }
        core_.feed(chunk.data(), chunk.size());
    }
}

void
CpuTarget::replay(const TraceRecord *recs, std::size_t n)
{
    core_.feed(recs, n);
}

void
CpuTarget::finish()
{
    if (!finished_) {
        done_ = core_.finishStream();
        finished_ = true;
    }
}

void
CpuTarget::flushPrimary()
{
    core_.flushDataCache();
}

TargetStats
CpuTarget::stats() const
{
    TargetStats s;
    s.kind = TargetKind::Cpu;
    s.l1 = core_.cache().stats();
    s.hasCpu = true;
    s.cpu = done_;
    return s;
}

// ---- label grammar ---------------------------------------------------

bool
OrgRegistry::knownTarget(const std::string &label) const
{
    std::string rest;
    if (stripPrefix(label, k2lvlPrefix, rest)) {
        std::string l1, l2;
        return splitHierarchyLabels(rest, l1, l2) && known(l1)
            && known(l2);
    }
    if (stripPrefix(label, kCpuPrefix, rest))
        return cpuConfigFor(rest, TargetSpec{}).has_value();
    if (stripPrefix(label, kMcPrefix, rest)) {
        unsigned cores = 0;
        std::string l1, l2;
        return splitMcLabel(rest, cores, l1, l2) && known(l1)
            && known(l2);
    }
    return known(label);
}

std::unique_ptr<SimTarget>
OrgRegistry::buildTarget(const std::string &label,
                         const TargetSpec &spec) const
{
    std::string rest;
    if (stripPrefix(label, k2lvlPrefix, rest)) {
        std::string l1_label, l2_label;
        if (!splitHierarchyLabels(rest, l1_label, l2_label)) {
            fatal("two-level target '%s' must have the form "
                  "2lvl:L1-LABEL/L2-LABEL",
                  label.c_str());
        }
        return buildCoherentTarget(*this, label, 1, l1_label, l2_label,
                                   spec, TargetKind::Hierarchy);
    }
    if (stripPrefix(label, kCpuPrefix, rest)) {
        const std::optional<CpuConfig> cfg = cpuConfigFor(rest, spec);
        if (!cfg) {
            fatal("unknown CPU target '%s' (expected cpu:CONFIG with a "
                  "Table-2 name or an aN index-scheme label)",
                  label.c_str());
        }
        return std::make_unique<CpuTarget>("cpu " + cfg->toString(),
                                           *cfg);
    }
    if (stripPrefix(label, kMcPrefix, rest)) {
        unsigned cores = 0;
        std::string l1_label, l2_label;
        if (!splitMcLabel(rest, cores, l1_label, l2_label)) {
            fatal("multicore target '%s' must have the form "
                  "mc:CORESxL1-LABEL/L2-LABEL with 1 <= CORES <= %u",
                  label.c_str(), kMaxCores);
        }
        return buildCoherentTarget(*this, label, cores, l1_label,
                                   l2_label, spec, TargetKind::MultiCore);
    }
    return std::make_unique<CacheTarget>(build(label, spec.org));
}

bool
tryReplayAll(TraceReader &reader, SimTarget &target, Error *error)
{
    while (true) {
        const std::vector<TraceRecord> &chunk = reader.next();
        if (chunk.empty())
            break;
        target.replay(chunk.data(), chunk.size());
    }
    if (!reader.ok()) {
        if (error)
            *error = reader.errorInfo();
        return false;
    }
    return true;
}

void
replayAll(TraceReader &reader, SimTarget &target)
{
    Error error;
    if (!tryReplayAll(reader, target, &error))
        fatal("%s", error.message().c_str());
}

std::vector<std::string>
standardTargetLabels()
{
    std::vector<std::string> labels = standardComparisonLabels();
    labels.push_back("2lvl:a2/a4");
    labels.push_back("2lvl:a2-Hp-Sk/a4");
    labels.push_back("cpu:8k-conv");
    labels.push_back("cpu:8k-ipoly-cp-pred");
    labels.push_back("mc:2xa2/a4");
    labels.push_back("mc:2xa2-Hp-Sk/a4");
    return labels;
}

} // namespace cac
