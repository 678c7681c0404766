#include "core/registry.hh"

#include <cctype>

#include "cache/fully_assoc.hh"
#include "cache/set_assoc.hh"
#include "cache/two_probe.hh"
#include "cache/victim.hh"
#include "common/logging.hh"
#include "index/factory.hh"

namespace cac
{

bool
splitAssocLabel(const std::string &label, unsigned &ways,
                std::string &suffix)
{
    if (label.size() < 2 || label[0] != 'a'
        || !std::isdigit(static_cast<unsigned char>(label[1]))) {
        return false;
    }
    std::size_t i = 1;
    std::uint64_t parsed = 0;
    while (i < label.size()
           && std::isdigit(static_cast<unsigned char>(label[i]))) {
        parsed = parsed * 10 + (label[i] - '0');
        if (parsed > 1u << 20) // reject absurd way counts (and overflow)
            return false;
        ++i;
    }
    ways = static_cast<unsigned>(parsed);
    if (ways < 1)
        return false;
    if (i == label.size()) {
        suffix.clear();
        return true;
    }
    if (label[i] != '-' || i + 1 == label.size())
        return false;
    suffix = label.substr(i + 1);
    return true;
}

namespace
{

std::unique_ptr<CacheModel>
buildSetAssoc(unsigned ways, IndexKind kind, const OrgSpec &spec)
{
    const CacheGeometry geom(spec.sizeBytes, spec.blockBytes, ways);
    auto index = makeIndexFn(kind, geom.setBits(), ways,
                             spec.hashBlockBits);
    return std::make_unique<SetAssocCache>(
        geom, std::move(index), ReplKind::Lru,
        spec.writeAllocate ? WriteAllocate::Yes : WriteAllocate::No);
}

} // anonymous namespace

OrgRegistry &
OrgRegistry::global()
{
    static OrgRegistry registry;
    return registry;
}

OrgRegistry::OrgRegistry()
{
    add("dm", "direct mapped, conventional index",
        [](const std::string &, const OrgSpec &spec) {
            return buildSetAssoc(1, IndexKind::Modulo, spec);
        });

    // The aN families: associativity parsed from the label, placement
    // scheme resolved through the index factory's label parser so the
    // suffix -> IndexKind mapping has a single source of truth.
    struct Family
    {
        const char *suffix;
        const char *description;
    };
    static const Family kFamilies[] = {
        {"", "N-way conventional (e.g. \"a2\", \"a4\")"},
        {"Hx", "N-way XOR hash, identical per way"},
        {"Hx-Sk", "N-way skewed-associative XOR"},
        {"Hp", "N-way I-Poly, same polynomial per way"},
        {"Hp-Sk", "N-way skewed I-Poly (the paper's best scheme)"},
    };
    for (const Family &family : kFamilies) {
        const std::string tail =
            family.suffix[0] ? std::string("-") + family.suffix : "";
        const std::string want = family.suffix;
        const auto kind = tryParseIndexKind(family.suffix);
        CAC_ASSERT(kind.has_value());
        addFamily("aN" + tail, "a2" + tail, family.description,
                  [want](const std::string &label) {
                      unsigned ways = 0;
                      std::string suffix;
                      return splitAssocLabel(label, ways, suffix)
                          && suffix == want;
                  },
                  [kind = *kind](const std::string &label,
                                 const OrgSpec &spec) {
                      unsigned ways = 0;
                      std::string suffix;
                      splitAssocLabel(label, ways, suffix);
                      return buildSetAssoc(ways, kind, spec);
                  });
    }

    add("full", "fully associative LRU",
        [](const std::string &, const OrgSpec &spec) {
            return std::make_unique<FullyAssocCache>(
                spec.sizeBytes, spec.blockBytes, spec.writeAllocate);
        });
    add("victim", "direct-mapped + victim buffer",
        [](const std::string &, const OrgSpec &spec) {
            const CacheGeometry geom(spec.sizeBytes, spec.blockBytes, 1);
            return std::make_unique<VictimCache>(geom, spec.victimBlocks,
                                                 spec.writeAllocate);
        });
    add("hash-rehash", "two-probe DM, flip-top-bit rehash",
        [](const std::string &, const OrgSpec &spec) {
            const CacheGeometry geom(spec.sizeBytes, spec.blockBytes, 1);
            return std::make_unique<TwoProbeCache>(
                geom, RehashKind::FlipTopBit, spec.hashBlockBits,
                spec.writeAllocate);
        });
    add("column-poly",
        "two-probe DM, polynomial rehash (section 3.1 opt. 4)",
        [](const std::string &, const OrgSpec &spec) {
            const CacheGeometry geom(spec.sizeBytes, spec.blockBytes, 1);
            return std::make_unique<TwoProbeCache>(
                geom, RehashKind::IPoly, spec.hashBlockBits,
                spec.writeAllocate);
        });
}

void
OrgRegistry::add(const std::string &label, const std::string &description,
                 Builder build)
{
    addFamily(label, label, description,
              [label](const std::string &candidate) {
                  return candidate == label;
              },
              std::move(build));
}

void
OrgRegistry::addFamily(const std::string &pattern,
                       const std::string &example,
                       const std::string &description, Matcher matches,
                       Builder build)
{
    CAC_ASSERT(matches != nullptr && build != nullptr);
    Entry entry;
    entry.pattern = pattern;
    entry.example = example;
    entry.description = description;
    entry.matches = std::move(matches);
    entry.build = std::move(build);
    entries_.push_back(std::move(entry));
}

const OrgRegistry::Entry *
OrgRegistry::find(const std::string &label) const
{
    for (const Entry &entry : entries_) {
        if (entry.matches(label))
            return &entry;
    }
    return nullptr;
}

bool
OrgRegistry::known(const std::string &label) const
{
    return find(label) != nullptr;
}

std::unique_ptr<CacheModel>
OrgRegistry::build(const std::string &label, const OrgSpec &spec) const
{
    if (const Entry *entry = find(label))
        return entry->build(label, spec);
    fatal("unknown cache organization '%s'", label.c_str());
}

std::vector<std::string>
OrgRegistry::patterns() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry &entry : entries_)
        out.push_back(entry.pattern);
    return out;
}

std::vector<std::string>
OrgRegistry::exampleLabels() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry &entry : entries_)
        out.push_back(entry.example);
    return out;
}

std::unique_ptr<CacheModel>
makeOrganization(const std::string &label, const OrgSpec &spec)
{
    return OrgRegistry::global().build(label, spec);
}

std::vector<std::string>
standardComparisonLabels()
{
    return {"dm",    "a2",          "a4",         "a2-Hx-Sk", "a2-Hp",
            "a2-Hp-Sk", "victim",  "hash-rehash", "column-poly", "full"};
}

std::vector<std::string>
scenarioComparisonLabels()
{
    // The placement-scheme story under multiprogramming: conventional
    // 2-way vs the hashed/skewed schemes, with the fully-associative
    // bound alongside (it is also the profiler's shadow, so its row
    // shows the capacity+compulsory floor of the mix).
    return {"a2", "a4", "a2-Hx-Sk", "a2-Hp", "a2-Hp-Sk", "victim",
            "full"};
}

} // namespace cac
