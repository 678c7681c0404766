#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include <sys/resource.h>

#include "obs/manifest.hh"

namespace e2e
{

void
Outcome::op(bool ok, const std::string &what)
{
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    check(false, what);
}

void
Outcome::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct_ = false;
    if (problems_.size() < 32)
        problems_.push_back("check failed: " + what);
}

void
Outcome::set(const std::string &name, double value,
             const std::string &unit)
{
    metrics_[name] = Metric{value, unit};
}

bool
Outcome::has(const std::string &name) const
{
    return metrics_.count(name) != 0;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 1099511628211ull;
    }
}

void
Digest::add(const std::string &s)
{
    for (unsigned char c : s) {
        h_ ^= c;
        h_ *= 1099511628211ull;
    }
    add(static_cast<std::uint64_t>(s.size()));
}

void
Digest::add(const cac::CacheStats &s)
{
    for (std::uint64_t v :
         {s.loads, s.stores, s.loadMisses, s.storeMisses, s.fills,
          s.evictions, s.writebacks, s.invalidations, s.firstProbeHits,
          s.secondProbeHits}) {
        add(v);
    }
}

void
Digest::add(const cac::TargetStats &s)
{
    add(static_cast<std::uint64_t>(s.kind));
    add(s.l1);
    if (s.hasHierarchy) {
        add(s.l2);
        const cac::HoleStats &h = s.holes;
        for (std::uint64_t v :
             {h.l1Misses, h.l2Misses, h.l2Replacements,
              h.inclusionInvalidates, h.holesCreated, h.holeRefills,
              h.externalInvalidates, h.aliasRemovals}) {
            add(v);
        }
    }
    if (s.hasMultiCore) {
        add(s.mc.interventions);
        add(s.mc.invalidationMessages);
        for (const cac::McCoreStats &c : s.mc.cores) {
            add(c.l1);
            add(c.interventionsReceived);
            add(c.interventionsSupplied);
            add(c.invalidationsReceived);
            add(c.upgrades);
            add(c.l2EvictionsByOthers);
            add(c.interCoreConflictMisses);
        }
    }
}

std::string
Digest::hex() const
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

std::uint64_t
memRecords(const cac::Trace &trace)
{
    std::uint64_t n = 0;
    for (const cac::TraceRecord &r : trace)
        n += cac::isMemOp(r.op) ? 1 : 0;
    return n;
}

std::string
loadAverage()
{
    std::ifstream in("/proc/loadavg");
    std::string a, b, c;
    if (!(in >> a >> b >> c))
        return "unknown";
    return a + " " + b + " " + c;
}

namespace
{

std::string
readCpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                std::string v = line.substr(colon + 1);
                v.erase(0, v.find_first_not_of(' '));
                return v;
            }
        }
    }
    return "unknown";
}

} // anonymous namespace

Provenance
captureProvenance()
{
    const cac::obs::RunManifest m = cac::obs::buildRunManifest("cac_e2e");
    Provenance p;
    p.nproc = std::thread::hardware_concurrency();
    p.cpuModel = readCpuModel();
    p.loadStart = loadAverage();
    p.buildType = m.buildType;
    p.simdDispatch = m.simdDispatch;
    p.compiler = m.compiler;
    p.gitDescribe = m.gitDescribe;
    p.obsCompiled = m.obsCompiled;
    return p;
}

double
peakRssMiB()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
provenanceLine(const Provenance &p)
{
    return "host nproc=" + std::to_string(p.nproc) + " cpu=\""
        + p.cpuModel + "\" load_start=\"" + p.loadStart
        + "\" build_type=" + p.buildType
        + " index_dispatch=" + p.simdDispatch + " compiler=\""
        + p.compiler + "\" git=" + p.gitDescribe
        + " obs_compiled=" + (p.obsCompiled ? "1" : "0");
}

} // namespace e2e
