#include "serve/advisor.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "analysis/index_search.hh"
#include "core/registry.hh"
#include "core/sweep.hh"
#include "obs/obs.hh"

namespace cac::serve
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** log2 of a power of two. */
unsigned
log2u(std::uint64_t v)
{
    unsigned bits = 0;
    while (v > 1) {
        v >>= 1;
        ++bits;
    }
    return bits;
}

Error
badRequest(const std::string &detail)
{
    return Error::make(ErrorCode::Protocol, detail, "request");
}

/** Parse a decimal u64 request field; false on junk or overflow. */
bool
parseU64(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.size() > 19)
        return false;
    std::uint64_t value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out = value;
    return true;
}

/** Fetch kv[key] as u64 into @p out; absent keys keep the default. */
Error
fetchU64(const std::map<std::string, std::string> &kv,
         const std::string &key, std::uint64_t &out)
{
    auto it = kv.find(key);
    if (it == kv.end())
        return Error();
    if (!parseU64(it->second, out)) {
        return badRequest("field '" + key + "' is not a decimal "
                          "integer: \"" + it->second + "\"");
    }
    return Error();
}

std::string
fmtU64(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
fmtPct(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    return buf;
}

using Kv = std::vector<std::pair<std::string, std::string>>;

void
appendStats(Kv &out, const std::string &prefix, const CacheStats &stats)
{
    out.emplace_back(prefix + "accesses", fmtU64(stats.accesses()));
    out.emplace_back(prefix + "loads", fmtU64(stats.loads));
    out.emplace_back(prefix + "stores", fmtU64(stats.stores));
    out.emplace_back(prefix + "misses", fmtU64(stats.misses()));
    out.emplace_back(prefix + "miss_pct",
                     fmtPct(100.0 * stats.missRatio()));
}

} // anonymous namespace

Error
parseAdvisorRequest(MsgType kind,
                    const std::map<std::string, std::string> &kv,
                    AdvisorRequest &request)
{
    request.kind = kind;

    // Workload: the "mix:" grammar, with bare atoms ("swim",
    // "stride512") auto-wrapped so simple requests stay simple.
    auto it = kv.find("workload");
    if (it == kv.end() || it->second.empty())
        return badRequest("missing required field 'workload'");
    std::string label = it->second;
    if (!isScenarioLabel(label))
        label = "mix:" + label;
    std::string parse_error;
    std::optional<ScenarioSpec> spec =
        parseScenarioLabel(label, &parse_error);
    if (!spec)
        return badRequest("bad workload: " + parse_error);
    for (const std::string &program : spec->programs) {
        // The service never opens client-named files: a "trace:" atom
        // would make the composer read an arbitrary server-side path
        // (and die if it is missing), so it is refused outright.
        if (program.rfind("trace:", 0) == 0) {
            return badRequest("workload atom '" + program
                              + "': trace files cannot be served; "
                                "use proxy or stride atoms");
        }
    }
    if (spec->config.programRecords > kMaxWorkloadRecords) {
        return badRequest("workload n exceeds the "
                          + std::to_string(kMaxWorkloadRecords)
                          + "-record cap per program");
    }
    request.workload = std::move(*spec);

    if (Error err = fetchU64(kv, "size", request.sizeBytes))
        return err;
    if (Error err = fetchU64(kv, "block", request.blockBytes))
        return err;
    std::uint64_t ways = request.ways;
    if (Error err = fetchU64(kv, "ways", ways))
        return err;

    std::uint64_t deadline = request.deadlineMs;
    if (Error err = fetchU64(kv, "deadline_ms", deadline))
        return err;
    if (deadline > kMaxDeadlineMs)
        return badRequest("deadline_ms exceeds the 10-minute cap");
    request.deadlineMs = static_cast<unsigned>(deadline);

    // Geometry sanity (the engine's CacheGeometry constructor is fatal
    // on these, so they must be caught here, softly).
    if (!isPow2(request.sizeBytes) || !isPow2(request.blockBytes)
        || !isPow2(ways)) {
        return badRequest("size, block and ways must be powers of two");
    }
    if (request.blockBytes < 8 || request.blockBytes > 4096)
        return badRequest("block must be between 8 and 4096 bytes");
    if (request.sizeBytes > (std::uint64_t{1} << 30))
        return badRequest("size exceeds the 1 GiB cap");

    if (kind == MsgType::Analyze) {
        if (auto org = kv.find("org"); org != kv.end())
            request.org = org->second;
        if (!OrgRegistry::global().known(request.org)) {
            return badRequest("unknown org '" + request.org
                              + "' (try cac_sim --list)");
        }
        // Associativity comes from the label for set-assoc families;
        // other organizations are direct-mapped or fully associative.
        unsigned label_ways = 1;
        std::string suffix;
        if (request.org == "dm" || request.org == "victim"
            || request.org == "hash-rehash"
            || request.org == "column-poly" || request.org == "full") {
            label_ways = 1;
        } else if (!splitAssocLabel(request.org, label_ways, suffix)) {
            return badRequest("org '" + request.org
                              + "' is not servable (single-level "
                                "organizations only)");
        }
        if (request.sizeBytes % (request.blockBytes * label_ways) != 0
            || request.sizeBytes < request.blockBytes * label_ways) {
            return badRequest("size must be a multiple of "
                              "block * associativity");
        }
        request.ways = label_ways;
        return Error();
    }

    // RECOMMEND: full geometry plus the search-space knobs.
    if (ways < 1 || ways > 16)
        return badRequest("ways must be between 1 and 16");
    request.ways = static_cast<unsigned>(ways);
    if (request.sizeBytes % (request.blockBytes * request.ways) != 0
        || request.sizeBytes < request.blockBytes * request.ways * 2) {
        return badRequest("size must be a multiple of block * ways, "
                          "with at least two sets");
    }
    const unsigned set_bits = log2u(
        request.sizeBytes / (request.blockBytes * request.ways));

    std::uint64_t polys = request.polyStarts;
    std::uint64_t randoms = request.randomSeeds;
    std::uint64_t top = request.topN;
    std::uint64_t input_bits = 0;
    std::uint64_t baselines = 1;
    if (Error err = fetchU64(kv, "polys", polys))
        return err;
    if (Error err = fetchU64(kv, "random", randoms))
        return err;
    if (Error err = fetchU64(kv, "top", top))
        return err;
    if (Error err = fetchU64(kv, "input_bits", input_bits))
        return err;
    if (Error err = fetchU64(kv, "baselines", baselines))
        return err;
    if (Error err = fetchU64(kv, "seed", request.seed))
        return err;
    if (polys > kMaxPolyStarts)
        return badRequest("polys exceeds the cap of "
                          + std::to_string(kMaxPolyStarts));
    if (randoms > kMaxRandomSeeds)
        return badRequest("random exceeds the cap of "
                          + std::to_string(kMaxRandomSeeds));
    if (top < 1 || top > kMaxTopN)
        return badRequest("top must be between 1 and "
                          + std::to_string(kMaxTopN));
    if (input_bits == 0)
        input_bits = std::max(set_bits, 14u);
    if (input_bits < set_bits || input_bits > 40) {
        return badRequest("input_bits must cover the set index ("
                          + std::to_string(set_bits)
                          + " bits) and stay <= 40");
    }
    if (baselines > 1)
        return badRequest("baselines must be 0 or 1");
    if (polys == 0 && randoms == 0 && baselines == 0)
        return badRequest("empty search space: polys, random and "
                          "baselines are all zero");
    request.polyStarts = polys;
    request.randomSeeds = randoms;
    request.topN = static_cast<unsigned>(top);
    request.inputBits = static_cast<unsigned>(input_bits);
    request.includeBaselines = baselines == 1;
    return Error();
}

std::string
canonicalWorkload(const ScenarioSpec &spec)
{
    std::string out = "mix:";
    for (std::size_t i = 0; i < spec.programs.size(); ++i) {
        if (i > 0)
            out += '+';
        out += spec.programs[i];
    }
    const ScenarioConfig &c = spec.config;
    out += "@q=" + fmtU64(c.quantumRecords);
    out += ",n=" + fmtU64(c.programRecords);
    out += ",phase=" + fmtU64(c.phaseRecords);
    out += ",asid=" + fmtU64(c.asidStrideBytes);
    out += ",seed=" + fmtU64(c.seed);
    out += "," + switchPolicyName(c.policy);
    return out;
}

std::string
canonicalKey(const AdvisorRequest &request)
{
    std::string key = "cas1|";
    if (request.kind == MsgType::Analyze) {
        // The *built* model's name is the canonical form of the org
        // label: alias labels constructing identical caches ("dm" and
        // "a1") render — and therefore hash — identically.
        OrgSpec spec;
        spec.sizeBytes = request.sizeBytes;
        spec.blockBytes = request.blockBytes;
        const std::unique_ptr<CacheModel> model =
            makeOrganization(request.org, spec);
        key += "analyze|target=" + model->name();
        key += "|spec=hash_block_bits:"
               + std::to_string(spec.hashBlockBits)
               + ",victim_blocks:" + std::to_string(spec.victimBlocks)
               + ",write_allocate:" + (spec.writeAllocate ? "1" : "0");
    } else {
        key += "recommend|geom=size:" + fmtU64(request.sizeBytes)
               + ",block:" + fmtU64(request.blockBytes)
               + ",ways:" + std::to_string(request.ways);
        key += "|search=baselines:"
               + std::string(request.includeBaselines ? "1" : "0")
               + ",input_bits:" + std::to_string(request.inputBits)
               + ",polys:" + std::to_string(request.polyStarts)
               + ",random:" + std::to_string(request.randomSeeds)
               + ",seed:" + fmtU64(request.seed)
               + ",top:" + std::to_string(request.topN);
    }
    key += "|workload=" + canonicalWorkload(request.workload);
    return key;
}

namespace
{

std::string
computeAnalyze(const AdvisorRequest &request, unsigned threads)
{
    CAC_OBS_SPAN_D("serve", "serve.compute.analyze", request.org);
    SweepRunner sweep(threads);
    if (request.deadlineMs > 0)
        sweep.setCellDeadline(request.deadlineMs);
    TargetSpec spec;
    spec.org.sizeBytes = request.sizeBytes;
    spec.org.blockBytes = request.blockBytes;
    sweep.setTargetSpec(spec);
    sweep.addOrg(request.org);

    // Parse-time validation banned unknown and "trace:" atoms, so
    // composition cannot hit the constructor's fatal path.
    auto scenario = std::make_shared<const Scenario>(request.workload);
    sweep.addScenarioWorkload(canonicalWorkload(request.workload),
                              scenario);

    const std::vector<SweepCell> cells = sweep.run();
    const SweepCell &cell = cells.at(0);
    if (cell.failed)
        throw CacError(cell.error);

    Kv out;
    out.emplace_back("org", request.org);
    out.emplace_back("target", cell.cacheName);
    out.emplace_back("workload", canonicalWorkload(request.workload));
    appendStats(out, "", cell.stats);
    out.emplace_back("switches",
                     fmtU64(scenario->numSwitches()));
    out.emplace_back("programs",
                     std::to_string(cell.programs.size()));
    for (std::size_t i = 0; i < cell.programs.size(); ++i) {
        const ScenarioProgramStats &p = cell.programs[i];
        const std::string prefix =
            "program." + std::to_string(i) + ".";
        out.emplace_back(prefix + "name", p.name);
        out.emplace_back(prefix + "records", fmtU64(p.records));
        appendStats(out, prefix, p.l1);
    }
    return kvRender(out);
}

std::string
computeRecommend(const AdvisorRequest &request, unsigned threads)
{
    CAC_OBS_SPAN_D("serve", "serve.compute.recommend",
                   request.workload.label);
    SearchConfig config;
    config.geometry = CacheGeometry(request.sizeBytes,
                                    request.blockBytes, request.ways);
    config.inputBits = request.inputBits;
    config.polyStarts = request.polyStarts;
    config.randomSeeds = request.randomSeeds;
    config.seed = request.seed;
    config.includeBaselines = request.includeBaselines;
    config.threads = threads;
    config.cellDeadlineMs = request.deadlineMs;

    IndexSearch search(config);
    const std::vector<SearchResult> results =
        search.run(std::make_shared<const Scenario>(request.workload));

    // Failed rows sort last, so a failed best row means nothing
    // finished in time — surface the deadline as a typed error.
    if (results.empty() || results.front().failed) {
        throw CacError(results.empty()
                           ? Error::make(ErrorCode::WorkerFailed,
                                         "empty search grid")
                           : results.front().error);
    }
    std::size_t healthy = 0;
    while (healthy < results.size() && !results[healthy].failed)
        ++healthy;

    Kv out;
    out.emplace_back("workload", canonicalWorkload(request.workload));
    out.emplace_back("geometry", config.geometry.toString());
    out.emplace_back("candidates", std::to_string(results.size()));
    out.emplace_back("failed_cells",
                     std::to_string(results.size() - healthy));
    out.emplace_back("best", results.front().label);
    out.emplace_back("best.index", results.front().indexName);
    const std::size_t rows =
        std::min<std::size_t>(request.topN, healthy);
    out.emplace_back("results", std::to_string(rows));
    for (std::size_t i = 0; i < rows; ++i) {
        const SearchResult &r = results[i];
        const std::string prefix =
            "result." + std::to_string(i) + ".";
        out.emplace_back(prefix + "label", r.label);
        out.emplace_back(prefix + "kind", r.kind);
        out.emplace_back(prefix + "index", r.indexName);
        out.emplace_back(prefix + "skewed", r.skewed ? "1" : "0");
        out.emplace_back(prefix + "max_fanin",
                         std::to_string(r.maxFanIn));
        out.emplace_back(prefix + "predicted_score",
                         std::to_string(r.predictedScore));
        out.emplace_back(prefix + "stride_free",
                         r.strideFree ? "1" : "0");
        out.emplace_back(prefix + "conflict_misses",
                         fmtU64(r.conflictMisses));
        out.emplace_back(prefix + "conflict_miss_pct",
                         fmtPct(r.conflictMissPct));
        appendStats(out, prefix, r.stats);
    }
    return kvRender(out);
}

} // anonymous namespace

std::string
computeAdvice(const AdvisorRequest &request, unsigned threads)
{
    if (request.kind == MsgType::Analyze)
        return computeAnalyze(request, threads);
    return computeRecommend(request, threads);
}

} // namespace cac::serve
