#include "scenario/scenario.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <limits>
#include <span>
#include <utility>

#include "common/huge_pages.hh"
#include "common/logging.hh"
#include "obs/obs.hh"
#include "trace/builder.hh"
#include "trace/io.hh"
#include "workloads/spec_proxy.hh"
#include "workloads/stride.hh"

namespace cac
{

namespace
{

constexpr const char *kMixPrefix = "mix:";
constexpr const char *kTracePrefix = "trace:";
constexpr const char *kStridePrefix = "stride";

/** PC window per program, mirroring the address windows. */
constexpr std::uint32_t kPcStridePerAsid = std::uint32_t{1} << 20;

/** Parse "50", "50k", "2m" (k = x1000, m = x1000000). */
bool
parseScaled(const std::string &text, std::uint64_t &value)
{
    if (text.empty())
        return false;
    std::uint64_t parsed = 0;
    std::size_t i = 0;
    for (; i < text.size()
           && std::isdigit(static_cast<unsigned char>(text[i]));
         ++i) {
        parsed = parsed * 10 + (text[i] - '0');
        if (parsed > (std::uint64_t{1} << 40)) // reject absurd values
            return false;
    }
    if (i == 0)
        return false;
    if (i < text.size()) {
        if (i + 1 != text.size())
            return false;
        const char suffix =
            static_cast<char>(std::tolower(static_cast<unsigned char>(
                text[i])));
        if (suffix == 'k')
            parsed *= 1000;
        else if (suffix == 'm')
            parsed *= 1000 * 1000;
        else
            return false;
    }
    value = parsed;
    return true;
}

/** "stride512" -> 512; false when @p atom is not of that shape. */
bool
parseStrideAtom(const std::string &atom, std::uint64_t &stride)
{
    const std::size_t len = std::char_traits<char>::length(kStridePrefix);
    if (atom.compare(0, len, kStridePrefix) != 0
        || atom.size() == len) {
        return false;
    }
    std::uint64_t parsed = 0;
    for (std::size_t i = len; i < atom.size(); ++i) {
        if (!std::isdigit(static_cast<unsigned char>(atom[i])))
            return false;
        parsed = parsed * 10 + (atom[i] - '0');
        if (parsed > (std::uint64_t{1} << 40)) // same cap as parseScaled
            return false;
    }
    stride = parsed;
    return stride > 0;
}

bool
isTraceAtom(const std::string &atom)
{
    const std::size_t len = std::char_traits<char>::length(kTracePrefix);
    return atom.compare(0, len, kTracePrefix) == 0 && atom.size() > len;
}

/** The "known:" tail of the unknown-workload diagnostic. */
std::string
knownProgramLabels()
{
    std::string out;
    for (const SpecProxyInfo &info : specProxyList()) {
        if (!out.empty())
            out += ", ";
        out += info.name;
    }
    out += ", strideN, trace:PATH";
    return out;
}

bool
fail(std::string *error, const std::string &message)
{
    if (error != nullptr)
        *error = message;
    return false;
}

/** Split @p text on @p sep (empty pieces preserved). */
std::vector<std::string>
split(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t end = text.find(sep, start);
        if (end == std::string::npos) {
            out.push_back(text.substr(start));
            return out;
        }
        out.push_back(text.substr(start, end - start));
        start = end + 1;
    }
}

bool
parseInto(const std::string &label, ScenarioSpec &spec,
          std::string *error)
{
    const std::string diag = "scenario '" + label + "': ";
    std::string rest;
    if (!isScenarioLabel(label))
        return fail(error, diag + "expected a 'mix:' prefix");
    rest = label.substr(std::char_traits<char>::length(kMixPrefix));

    const std::size_t at = rest.find('@');
    const std::string programs_part = rest.substr(0, at);
    const std::string options_part =
        at == std::string::npos ? std::string() : rest.substr(at + 1);

    spec.label = label;
    spec.programs.clear();
    spec.config = ScenarioConfig{};

    if (programs_part.empty())
        return fail(error, diag + "no programs before '@'");
    for (const std::string &atom : split(programs_part, '+')) {
        if (atom.empty())
            return fail(error, diag + "empty program in the '+' list");
        std::uint64_t stride = 0;
        if (!knownSpecProxy(atom) && !parseStrideAtom(atom, stride)
            && !isTraceAtom(atom)) {
            return fail(error, diag + "unknown workload '" + atom
                                   + "' (known: " + knownProgramLabels()
                                   + ")");
        }
        spec.programs.push_back(atom);
    }

    if (options_part.empty() && at != std::string::npos)
        return fail(error, diag + "empty option list after '@'");
    if (options_part.empty())
        return true;
    for (const std::string &opt : split(options_part, ',')) {
        if (opt == "keep") {
            spec.config.policy = SwitchPolicy::WarmKeep;
            continue;
        }
        if (opt == "flush") {
            spec.config.policy = SwitchPolicy::ColdFlush;
            continue;
        }
        const std::size_t eq = opt.find('=');
        const std::string key =
            eq == std::string::npos ? opt : opt.substr(0, eq);
        std::uint64_t value = 0;
        if (eq == std::string::npos
            || !parseScaled(opt.substr(eq + 1), value)) {
            return fail(error, diag + "bad option '" + opt
                                   + "' (expected q=, n=, phase=, "
                                     "asid=, seed=, flush or keep)");
        }
        if (key == "q") {
            if (value == 0)
                return fail(error, diag + "quantum must be > 0");
            spec.config.quantumRecords = value;
        } else if (key == "n") {
            if (value == 0)
                return fail(error, diag + "n must be > 0");
            if (value > kMaxProgramRecords) {
                return fail(error, diag + "n exceeds the "
                                       + std::to_string(kMaxProgramRecords)
                                       + "-record maximum per program");
            }
            spec.config.programRecords =
                static_cast<std::size_t>(value);
        } else if (key == "phase") {
            spec.config.phaseRecords = value;
        } else if (key == "asid") {
            if (value == 0)
                return fail(error, diag + "asid stride must be > 0");
            spec.config.asidStrideBytes = value;
        } else if (key == "seed") {
            spec.config.seed = value;
        } else {
            return fail(error, diag + "bad option '" + opt
                                   + "' (expected q=, n=, phase=, "
                                     "asid=, seed=, flush or keep)");
        }
    }
    return true;
}

/** The Figure-1 sweep a "strideN" atom runs. */
StrideWorkloadConfig
strideConfig(std::uint64_t stride, const ScenarioConfig &config)
{
    StrideWorkloadConfig wc;
    wc.stride = stride;
    wc.sweeps = std::max<std::size_t>(
        1, config.programRecords / wc.numElements);
    return wc;
}

/**
 * The records one program certainly appends — exact for stride and
 * trace atoms (@p file holds a trace atom's records, read beforehand),
 * n for a proxy — and the room to reserve beyond them: a proxy may
 * overshoot n by up to n/8, the room buildSpecProxy() reserves.
 */
std::pair<std::size_t, std::size_t>
programSize(const std::string &atom, const ScenarioConfig &config,
            const Trace &file)
{
    if (isTraceAtom(atom))
        return {file.size(), 0};
    std::uint64_t stride = 0;
    if (parseStrideAtom(atom, stride)) {
        const StrideWorkloadConfig wc = strideConfig(stride, config);
        return {wc.sweeps * wc.numElements, 0};
    }
    return {config.programRecords, config.programRecords / 8};
}

/**
 * Append one program's (un-relocated) trace to @p out. A trace atom's
 * records are copied from @p file, which is then freed.
 */
void
appendProgram(Trace &out, const std::string &atom,
              const ScenarioConfig &config, Trace &file)
{
    if (isTraceAtom(atom)) {
        out.insert(out.end(), file.begin(), file.end());
        Trace().swap(file);
        return;
    }
    std::uint64_t stride = 0;
    if (parseStrideAtom(atom, stride)) {
        TraceBuilder builder(out);
        for (std::uint64_t addr :
             makeStrideAddressTrace(strideConfig(stride, config)))
            builder.load(addr, reg::r(1), reg::r(30));
        return;
    }
    appendSpecProxy(out, atom, config.programRecords, config.seed);
}

} // anonymous namespace

std::string
switchPolicyName(SwitchPolicy policy)
{
    return policy == SwitchPolicy::ColdFlush ? "flush" : "keep";
}

bool
isScenarioLabel(const std::string &label)
{
    return label.compare(0, std::char_traits<char>::length(kMixPrefix),
                         kMixPrefix) == 0;
}

std::optional<ScenarioSpec>
parseScenarioLabel(const std::string &label, std::string *error)
{
    ScenarioSpec spec;
    if (!parseInto(label, spec, error))
        return std::nullopt;
    return spec;
}

Scenario::Scenario(const ScenarioSpec &spec)
    : label_(spec.label), names_(spec.programs), config_(spec.config)
{
    CAC_ASSERT(!names_.empty());
    // parseScenarioLabel() rejects q=0, but a hand-built spec reaches
    // this constructor directly — and a zero quantum would spin the
    // scheduling loop forever without ever advancing a program.
    if (config_.quantumRecords == 0)
        fatal("scenario '%s': quantum must be > 0", label_.c_str());
    if (config_.programRecords > kMaxProgramRecords)
        fatal("scenario '%s': n exceeds the %zu-record maximum per "
              "program", label_.c_str(), kMaxProgramRecords);

    // Trace files are read first: their lengths size the buffer, so
    // appending never reallocates it (and never copies the mix).
    const std::size_t k = names_.size();
    std::vector<Trace> files(k);
    std::size_t certain = 0;
    std::size_t reserve = 0;
    for (std::size_t i = 0; i < k; ++i) {
        if (isTraceAtom(names_[i])) {
            files[i] = readTrace(names_[i].substr(
                std::char_traits<char>::length(kTracePrefix)));
        }
        const auto [records, room] =
            programSize(names_[i], config_, files[i]);
        certain += records;
        reserve += records + room;
    }
    composed_.reserve(reserve);
    // Huge pages only where records certainly land: a touched huge
    // page is resident whole, and the overshoot room mostly stays
    // unwritten.
    adviseHugePages(composed_.data(), certain * sizeof(TraceRecord));

    // Append, relocate and phase-shift every program where it lies.
    std::vector<std::size_t> start(k);
    std::vector<std::size_t> length(k);
    for (std::size_t i = 0; i < k; ++i) {
        start[i] = composed_.size();
        appendProgram(composed_, names_[i], config_, files[i]);
        length[i] = composed_.size() - start[i];
        if (length[i] == 0)
            fatal("scenario '%s': program '%s' produced no records",
                  label_.c_str(), names_[i].c_str());
        // A segment counts its records in 32 bits.
        if (length[i] > std::numeric_limits<std::uint32_t>::max())
            fatal("scenario '%s': program '%s' has %zu records; a mix "
                  "program may have at most 2^32 - 1",
                  label_.c_str(), names_[i].c_str(), length[i]);
        const std::span<TraceRecord> program(composed_.data() + start[i],
                                             length[i]);
        relocateTrace(program, i * config_.asidStrideBytes,
                      static_cast<std::uint32_t>(i) * kPcStridePerAsid);
        rotateTrace(program, (i * config_.phaseRecords) % length[i]);
    }

    // Round-robin in quantum-sized slices until every program is
    // exhausted; each slice points at its program's next records where
    // they lie. When only one program still has records, its
    // consecutive slices merge into one segment (no switch happens),
    // so the schedule's transitions are exactly the context switches.
    // The first pass only counts segments, so the schedule is
    // allocated once at its exact size: tiny quanta make it as large
    // as the trace, and a growing vector would hold 1.5x of it while
    // it reallocates.
    const std::size_t quantum =
        static_cast<std::size_t>(config_.quantumRecords);
    std::size_t segments = 0;
    for (const bool emit : {false, true}) {
        if (emit)
            schedule_.reserve(segments);
        std::vector<std::size_t> pos(k, 0);
        // Program of the previous slice (none yet).
        unsigned last = static_cast<unsigned>(k);
        for (bool progressed = true; progressed;) {
            progressed = false;
            for (unsigned i = 0; i < k; ++i) {
                if (pos[i] >= length[i])
                    continue;
                const std::size_t take =
                    std::min(quantum, length[i] - pos[i]);
                if (!emit)
                    segments += last != i ? 1 : 0;
                else if (last == i)
                    schedule_.back().count +=
                        static_cast<std::uint32_t>(take);
                else
                    schedule_.push_back(Segment{
                        start[i] + pos[i],
                        static_cast<std::uint32_t>(take), i});
                last = i;
                pos[i] += take;
                progressed = true;
            }
        }
    }
}

std::uint64_t
Scenario::numSwitches() const
{
    return schedule_.empty()
        ? 0
        : static_cast<std::uint64_t>(schedule_.size()) - 1;
}

ScenarioResult
Scenario::replayInto(SimTarget &target, std::size_t chunk_records,
                     const std::function<void(std::size_t)> &at_boundary)
    const
{
    ScenarioResult result;
    result.programs.resize(names_.size());
    for (std::size_t i = 0; i < names_.size(); ++i) {
        result.programs[i].name = names_[i];
        result.programs[i].asid = static_cast<unsigned>(i);
    }

    target.checkpoint();
    CacheStats prev = target.stats().l1;
    const TraceRecord *base = composed_.data();
    bool first = true;
    for (const Segment &segment : schedule_) {
        CAC_OBS_SPAN_D("scenario", "scenario.quantum",
                       names_[segment.program]);
        if (!first) {
            ++result.switches;
            if (config_.policy == SwitchPolicy::ColdFlush) {
                target.flushPrimary();
                ++result.flushes;
            }
        }
        first = false;

        std::size_t done = 0;
        std::size_t n = 0;
        const std::size_t chunk =
            chunk_records > 0 ? chunk_records : segment.count;
        while (done < segment.count) {
            n = std::min(chunk, segment.count - done);
            target.replay(base + segment.offset + done, n);
            done += n;
            if (at_boundary && done < segment.count)
                at_boundary(n);
        }

        // Checkpoint so stats() is exact at the slice boundary, then
        // bill the delta (including any flush side effects of this
        // slice's own switch-in) to the program that just ran.
        target.checkpoint();
        const CacheStats now = target.stats().l1;
        ScenarioProgramStats &program =
            result.programs[segment.program];
        cacheStatsAccumulate(program.l1, cacheStatsDelta(now, prev));
        program.records += segment.count;
        prev = now;
        if (at_boundary)
            at_boundary(n);
    }
    if (obs::Registry::global().enabled()) {
        static const obs::Counter c_switches =
            obs::Registry::global().counter("scenario.switches");
        static const obs::Counter c_flushes =
            obs::Registry::global().counter("scenario.flushes");
        static const obs::Counter c_segments =
            obs::Registry::global().counter("scenario.segments");
        c_switches.add(result.switches);
        c_flushes.add(result.flushes);
        c_segments.add(schedule_.size());
    }
    return result;
}

std::shared_ptr<const Scenario>
buildScenario(const std::string &label)
{
    std::string error;
    const std::optional<ScenarioSpec> spec =
        parseScenarioLabel(label, &error);
    if (!spec)
        fatal("%s", error.c_str());
    return std::make_shared<const Scenario>(*spec);
}

} // namespace cac
