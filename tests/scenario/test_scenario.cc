/**
 * @file
 * Tests for the scenario grammar and composition: mix-label parsing
 * (including the unknown-workload diagnostics), ASID address windows,
 * quantum scheduling, phase shifts and schedule bookkeeping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "scenario/scenario.hh"
#include "trace/builder.hh"
#include "workloads/spec_proxy.hh"

namespace cac
{
namespace
{

ScenarioSpec
parseOk(const std::string &label)
{
    std::string error;
    const auto spec = parseScenarioLabel(label, &error);
    EXPECT_TRUE(spec.has_value()) << error;
    return spec.value_or(ScenarioSpec{});
}

std::string
parseError(const std::string &label)
{
    std::string error;
    const auto spec = parseScenarioLabel(label, &error);
    EXPECT_FALSE(spec.has_value()) << "parsed: " << label;
    return error;
}

TEST(ScenarioGrammar, PrefixDetection)
{
    EXPECT_TRUE(isScenarioLabel("mix:swim+tomcatv"));
    EXPECT_FALSE(isScenarioLabel("a2-Hp-Sk"));
    EXPECT_FALSE(isScenarioLabel("swim"));
}

TEST(ScenarioGrammar, ProgramsAndOptions)
{
    const ScenarioSpec spec =
        parseOk("mix:swim+tomcatv@q=50k,flush,phase=10k,asid=4m,"
                "n=30k,seed=7");
    ASSERT_EQ(spec.programs.size(), 2u);
    EXPECT_EQ(spec.programs[0], "swim");
    EXPECT_EQ(spec.programs[1], "tomcatv");
    EXPECT_EQ(spec.config.quantumRecords, 50000u);
    EXPECT_EQ(spec.config.policy, SwitchPolicy::ColdFlush);
    EXPECT_EQ(spec.config.phaseRecords, 10000u);
    EXPECT_EQ(spec.config.asidStrideBytes, 4000000u);
    EXPECT_EQ(spec.config.programRecords, 30000u);
    EXPECT_EQ(spec.config.seed, 7u);
}

TEST(ScenarioGrammar, DefaultsAndAtomKinds)
{
    const ScenarioSpec spec = parseOk("mix:stride512+li+trace:x.trc");
    ASSERT_EQ(spec.programs.size(), 3u);
    EXPECT_EQ(spec.config.policy, SwitchPolicy::WarmKeep);
    EXPECT_EQ(spec.config.quantumRecords, 50000u);
    EXPECT_EQ(spec.config.phaseRecords, 0u);
}

TEST(ScenarioGrammar, UnknownWorkloadDiagnostic)
{
    const std::string error = parseError("mix:swimm+tomcatv@q=5k");
    EXPECT_NE(error.find("unknown workload 'swimm'"), std::string::npos)
        << error;
    // The diagnostic lists what would have worked.
    EXPECT_NE(error.find("swim"), std::string::npos);
    EXPECT_NE(error.find("strideN"), std::string::npos);
    EXPECT_NE(error.find("trace:PATH"), std::string::npos);
}

TEST(ScenarioGrammar, MalformedLabels)
{
    EXPECT_NE(parseError("mix:@q=5k").find("no programs"),
              std::string::npos);
    EXPECT_NE(parseError("mix:swim+@q=5k").find("empty program"),
              std::string::npos);
    EXPECT_NE(parseError("mix:swim@").find("empty option"),
              std::string::npos);
    EXPECT_NE(parseError("mix:swim@zz=1").find("bad option 'zz=1'"),
              std::string::npos);
    EXPECT_NE(parseError("mix:swim@q=").find("bad option"),
              std::string::npos);
    EXPECT_NE(parseError("mix:swim@q=0").find("quantum"),
              std::string::npos);
    EXPECT_NE(parseError("a2-Hp-Sk").find("mix:"), std::string::npos);
    // "stride" with no digits is not a stride atom.
    EXPECT_NE(parseError("mix:stride").find("unknown workload"),
              std::string::npos);
}

TEST(ScenarioGrammar, NAboveThePerProgramMaximumIsADiagnostic)
{
    // 10^18 records: far past what a vector can reserve. Rejecting it
    // while parsing keeps composition from ever trying.
    EXPECT_NE(parseError("mix:swim@n=1000000000000m")
                  .find("n exceeds the 268435456-record maximum"),
              std::string::npos);
    EXPECT_NE(parseError("mix:stride512@n=268435457").find("n exceeds"),
              std::string::npos);
    EXPECT_EQ(parseOk("mix:swim@n=268435456").config.programRecords,
              kMaxProgramRecords);
}

/** Addresses of every memory op attributed to @p program's segments. */
std::pair<std::uint64_t, std::uint64_t>
addressRange(const Scenario &scenario, unsigned program)
{
    std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
    for (const Scenario::Segment &seg : scenario.schedule()) {
        if (seg.program != program)
            continue;
        for (std::size_t i = 0; i < seg.count; ++i) {
            const TraceRecord &rec =
                scenario.composed()[seg.offset + i];
            if (!isMemOp(rec.op))
                continue;
            lo = std::min(lo, rec.addr);
            hi = std::max(hi, rec.addr);
        }
    }
    return {lo, hi};
}

TEST(ScenarioComposition, AsidWindowsAreDisjoint)
{
    const auto scenario =
        buildScenario("mix:swim+tomcatv+gcc@q=2k,n=10k");
    ASSERT_EQ(scenario->programNames().size(), 3u);
    const auto r0 = addressRange(*scenario, 0);
    const auto r1 = addressRange(*scenario, 1);
    const auto r2 = addressRange(*scenario, 2);
    EXPECT_LT(r0.second, r1.first);
    EXPECT_LT(r1.second, r2.first);
    // Window stride is the documented default.
    EXPECT_GE(r1.first, std::uint64_t{1} << 21);
}

TEST(ScenarioComposition, ScheduleCoversComposedTraceExactly)
{
    const auto scenario = buildScenario("mix:li+compress@q=3k,n=10k");
    // Each program's segments are ascending and contiguous inside its
    // own range: a segment starts where its program's last one ended.
    const std::size_t programs = scenario->programNames().size();
    std::vector<std::size_t> start(programs, SIZE_MAX);
    std::vector<std::size_t> next(programs, 0);
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    for (const Scenario::Segment &seg : scenario->schedule()) {
        EXPECT_GT(seg.count, 0u);
        if (start[seg.program] == SIZE_MAX)
            start[seg.program] = next[seg.program] = seg.offset;
        EXPECT_EQ(seg.offset, next[seg.program]);
        next[seg.program] = seg.offset + seg.count;
        spans.emplace_back(seg.offset, seg.count);
    }
    // The programs lie back to back in program order...
    std::size_t end = 0;
    for (std::size_t p = 0; p < programs; ++p) {
        EXPECT_EQ(start[p], end) << "program " << p;
        end = next[p];
    }
    // ...and the segments tile composed() exactly once.
    std::sort(spans.begin(), spans.end());
    std::size_t covered = 0;
    for (const auto &[offset, count] : spans) {
        EXPECT_EQ(offset, covered);
        covered += count;
    }
    EXPECT_EQ(covered, scenario->composed().size());
    // Adjacent segments always switch programs (same-program slices
    // merge), so numSwitches() counts real context switches.
    const auto &sched = scenario->schedule();
    for (std::size_t i = 1; i < sched.size(); ++i)
        EXPECT_NE(sched[i].program, sched[i - 1].program);
    EXPECT_EQ(scenario->numSwitches(), sched.size() - 1);
}

TEST(ScenarioComposition, QuantumBoundsSliceLengths)
{
    const auto scenario = buildScenario("mix:li+compress@q=2k,n=9k");
    const auto &sched = scenario->schedule();
    // While both programs are live, every slice is at most one
    // quantum; merged tail slices (one program left) may be longer.
    for (std::size_t i = 0; i + 2 < sched.size(); ++i)
        EXPECT_LE(sched[i].count, 2000u);
}

TEST(ScenarioComposition, DeterministicRebuild)
{
    const std::string label = "mix:swim+wave5@q=5k,n=20k,seed=3";
    const auto a = buildScenario(label);
    const auto b = buildScenario(label);
    ASSERT_EQ(a->composed().size(), b->composed().size());
    for (std::size_t i = 0; i < a->composed().size(); ++i) {
        EXPECT_EQ(a->composed()[i].addr, b->composed()[i].addr);
        EXPECT_EQ(a->composed()[i].pc, b->composed()[i].pc);
        EXPECT_EQ(a->composed()[i].op, b->composed()[i].op);
    }
}

TEST(ScenarioComposition, PhaseShiftRotatesStreams)
{
    const auto base = buildScenario("mix:swim+swim@q=5k,n=20k");
    const auto shifted =
        buildScenario("mix:swim+swim@q=5k,n=20k,phase=1k");
    ASSERT_EQ(base->composed().size(), shifted->composed().size());
    // Program 0 (phase 0*1k) is identical; program 1 (phase 1*1k) is
    // rotated, so its first segment differs.
    const auto &b0 = base->schedule()[0];
    const auto &s0 = shifted->schedule()[0];
    ASSERT_EQ(b0.program, 0u);
    ASSERT_EQ(s0.program, 0u);
    bool first_differs = false;
    for (std::size_t i = 0; i < b0.count && !first_differs; ++i) {
        first_differs = base->composed()[i].addr
                        != shifted->composed()[i].addr;
    }
    EXPECT_FALSE(first_differs);
    const auto &b1 = base->schedule()[1];
    const auto &s1 = shifted->schedule()[1];
    ASSERT_EQ(b1.program, 1u);
    ASSERT_EQ(s1.program, 1u);
    bool second_differs = false;
    for (std::size_t i = 0; i < std::min(b1.count, s1.count); ++i) {
        if (base->composed()[b1.offset + i].addr
            != shifted->composed()[s1.offset + i].addr) {
            second_differs = true;
            break;
        }
    }
    EXPECT_TRUE(second_differs);
}

TEST(ScenarioComposition, RelocateAndRotateHelpers)
{
    Trace trace;
    TraceBuilder builder(trace);
    builder.load(0x1000, reg::r(1));
    builder.alu(OpClass::IntAlu, reg::r(2), reg::r(1));
    builder.store(0x2000, reg::r(2));
    const std::uint32_t pc0 = trace[0].pc;

    relocateTrace(trace, 0x100000, 0x400);
    EXPECT_EQ(trace[0].addr, 0x101000u);
    EXPECT_EQ(trace[1].addr, 0u); // ALU records carry no address
    EXPECT_EQ(trace[2].addr, 0x102000u);
    EXPECT_EQ(trace[0].pc, pc0 + 0x400);

    rotateTrace(trace, 1);
    EXPECT_EQ(trace[0].op, OpClass::IntAlu);
    EXPECT_EQ(trace[2].addr, 0x101000u);
    rotateTrace(trace, 3); // full cycle: no-op
    EXPECT_EQ(trace[0].op, OpClass::IntAlu);
}

} // namespace
} // namespace cac
