#include "scenario/scenario.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <span>
#include <type_traits>

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
 * Records to reserve for one program: exact for stride and trace atoms
 * (@p file holds a trace atom's records, read beforehand), and for a
 * proxy the n + n/8 overshoot room buildSpecProxy() reserves.
 */
std::size_t
reserveFor(const std::string &atom, const ScenarioConfig &config,
           const Trace &file)
{
    if (isTraceAtom(atom))
        return file.size();
    std::uint64_t stride = 0;
    if (parseStrideAtom(atom, stride)) {
        const StrideWorkloadConfig wc = strideConfig(stride, config);
        return wc.sweeps * wc.numElements;
    }
    return config.programRecords + config.programRecords / 8;
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

/** Block-size bounds for the in-place interleave. */
constexpr std::size_t kMinBlock = 256;
constexpr std::size_t kMaxBlock = 8192;

/**
 * The unit interleaveInPlace() moves: the largest divisor of
 * @p quantum in [kMinBlock, kMaxBlock], else the quantum itself. A
 * divisor keeps every full slice a whole number of blocks; the floor
 * keeps the moves few and long (one-record blocks turn the permutation
 * into a random walk over the whole mix, several times slower).
 */
std::size_t
compositionBlock(std::size_t quantum)
{
    for (std::size_t b = std::min(quantum, kMaxBlock); b >= kMinBlock;
         --b) {
        if (quantum % b == 0)
            return b;
    }
    return quantum;
}

std::size_t
roundUp(std::size_t n, std::size_t block)
{
    return (n + block - 1) / block * block;
}

/**
 * Reorder @p buffer — programs stored back to back, program p holding
 * @p length[p] records — into @p schedule's order, in place. Each
 * program is padded to whole blocks (compositionBlock()), so every
 * segment of the schedule is a run of whole blocks in both layouts;
 * the blocks are moved into place by following the permutation's
 * cycles with one block of scratch, and one left-to-right pass then
 * closes the padding. Extra memory: under (k+1) blocks of records for
 * k programs, plus one table entry per block.
 */
void
interleaveInPlace(Trace &buffer, const std::vector<std::size_t> &length,
                  const std::vector<Scenario::Segment> &schedule,
                  std::size_t quantum)
{
    static_assert(std::is_trivially_copyable_v<TraceRecord>);
    // One segment per program means nothing was split: the schedule
    // is the programs in order, which is how they already lie.
    if (schedule.size() == length.size())
        return;
    // Some program was split, so the quantum, and with it the block,
    // is shorter than the longest program.
    const std::size_t block = compositionBlock(quantum);
    const std::size_t total = buffer.size();

    // Pad: shift the programs right, last first, onto block
    // boundaries. The gaps' contents are never read back.
    std::vector<std::size_t> from_start(length.size());
    std::size_t padded_total = 0;
    for (std::size_t p = 0; p < length.size(); ++p) {
        from_start[p] = padded_total;
        padded_total += roundUp(length[p], block);
    }
    buffer.resize(padded_total);
    TraceRecord *data = buffer.data();
    std::size_t packed_start = total;
    for (std::size_t p = length.size(); p-- > 0;) {
        packed_start -= length[p];
        if (from_start[p] != packed_start) {
            std::memmove(data + from_start[p], data + packed_start,
                         length[p] * sizeof(TraceRecord));
        }
    }

    // from[d]: the source block destination block d takes.
    std::vector<std::size_t> from;
    from.reserve(padded_total / block);
    std::vector<std::size_t> pos(length.size(), 0);
    for (const Scenario::Segment &segment : schedule) {
        const std::size_t first =
            (from_start[segment.program] + pos[segment.program]) / block;
        const std::size_t blocks = roundUp(segment.count, block) / block;
        for (std::size_t j = 0; j < blocks; ++j)
            from.push_back(first + j);
        pos[segment.program] += segment.count;
    }
    CAC_ASSERT(from.size() * block == padded_total);

    // Follow each cycle once: lift its head into scratch, pull every
    // block of the cycle into place, drop the head into the last hole.
    const std::size_t bytes = block * sizeof(TraceRecord);
    Trace scratch(block);
    for (std::size_t head = 0; head < from.size(); ++head) {
        if (from[head] == head)
            continue;
        std::memcpy(scratch.data(), data + head * block, bytes);
        std::size_t d = head;
        while (from[d] != head) {
            const std::size_t s = from[d];
            std::memcpy(data + d * block, data + s * block, bytes);
            from[d] = d;
            d = s;
        }
        std::memcpy(data + d * block, scratch.data(), bytes);
        from[d] = d;
    }

    // Close the padding behind each program's last (partial) segment.
    std::size_t read = 0;
    std::size_t write = 0;
    for (const Scenario::Segment &segment : schedule) {
        CAC_ASSERT(segment.offset == write);
        if (read != write) {
            std::memmove(data + write, data + read,
                         segment.count * sizeof(TraceRecord));
        }
        write += segment.count;
        read += roundUp(segment.count, block);
    }
    CAC_ASSERT(write == total);
    buffer.resize(total);
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
    // interleaving loop forever without ever advancing a program.
    if (config_.quantumRecords == 0)
        fatal("scenario '%s': quantum must be > 0", label_.c_str());
    if (config_.programRecords > kMaxProgramRecords)
        fatal("scenario '%s': n exceeds the %zu-record maximum per "
              "program", label_.c_str(), kMaxProgramRecords);

    // Trace files are read first: their lengths size the buffer, so
    // appending never reallocates it (and never copies the mix).
    const std::size_t k = names_.size();
    std::vector<Trace> files(k);
    std::size_t reserve = 0;
    std::size_t longest = 0;
    for (std::size_t i = 0; i < k; ++i) {
        if (isTraceAtom(names_[i])) {
            files[i] = readTrace(names_[i].substr(
                std::char_traits<char>::length(kTracePrefix)));
        }
        const std::size_t records = reserveFor(names_[i], config_, files[i]);
        reserve += records;
        longest = std::max(longest, records);
    }
    const std::size_t quantum =
        static_cast<std::size_t>(config_.quantumRecords);
    // Room for interleaveInPlace()'s padding: under one block per
    // program, and a block is shorter than the longest program
    // whenever padding happens at all.
    composed_.reserve(reserve
                      + k * std::min(compositionBlock(quantum), longest));

    // Append, relocate and phase-shift every program where it lies.
    std::vector<std::size_t> length(k);
    for (std::size_t i = 0; i < k; ++i) {
        const std::size_t start = composed_.size();
        appendProgram(composed_, names_[i], config_, files[i]);
        length[i] = composed_.size() - start;
        if (length[i] == 0)
            fatal("scenario '%s': program '%s' produced no records",
                  label_.c_str(), names_[i].c_str());
        const std::span<TraceRecord> program(composed_.data() + start,
                                             length[i]);
        relocateTrace(program, i * config_.asidStrideBytes,
                      static_cast<std::uint32_t>(i) * kPcStridePerAsid);
        rotateTrace(program, (i * config_.phaseRecords) % length[i]);
    }

    // Round-robin interleave in quantum-sized slices until every
    // program is exhausted. When only one program still has records,
    // its consecutive slices merge into one segment (no switch
    // happens), so the schedule's transitions are exactly the context
    // switches.
    std::vector<std::size_t> pos(k, 0);
    std::size_t offset = 0;
    bool progressed = true;
    while (progressed) {
        progressed = false;
        for (unsigned i = 0; i < k; ++i) {
            if (pos[i] >= length[i])
                continue;
            const std::size_t take = std::min(quantum, length[i] - pos[i]);
            if (!schedule_.empty() && schedule_.back().program == i)
                schedule_.back().count += take;
            else
                schedule_.push_back(Segment{i, offset, take});
            offset += take;
            pos[i] += take;
            progressed = true;
        }
    }
    CAC_ASSERT(offset == composed_.size());
    interleaveInPlace(composed_, length, schedule_, quantum);
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
                     obs::WindowSampler *sampler) const
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
        const std::size_t chunk =
            chunk_records > 0 ? chunk_records : segment.count;
        while (done < segment.count) {
            const std::size_t n =
                std::min(chunk, segment.count - done);
            target.replay(base + segment.offset + done, n);
            done += n;
            if (sampler && done < segment.count)
                sampler->sample();
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
        if (sampler)
            sampler->sample();
    }
#if CAC_OBS
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
#endif
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
