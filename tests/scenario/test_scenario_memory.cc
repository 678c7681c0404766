/**
 * @file
 * The scenario layer's memory bounds: every program is built straight
 * into the composed buffer and replayed where it lies, so composing a
 * mix raises the process's peak RSS by the composed trace alone (plus
 * allocator slack), not by a second copy of the mix; and the schedule
 * costs 16 bytes per segment, allocated once, even when one-record
 * quanta make it as long as the trace. Measured in forked children,
 * so each peak is one composition's alone.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "scenario/scenario.hh"

namespace cac
{
namespace
{

/** VmHWM (peak resident set) of this process in bytes, 0 if unknown. */
std::uint64_t
peakRssBytes()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6)) * 1024;
    }
    return 0;
}

/**
 * Compose @p label in a forked child and require its peak-RSS growth
 * to stay within the composed trace, @p per_segment bytes per schedule
 * segment and 4 MiB of allocator slack.
 */
void
expectCompositionWithin(const std::string &label,
                        std::uint64_t per_segment)
{
    constexpr std::uint64_t kSlack = std::uint64_t{4} << 20;

    int pipe_fds[2];
    ASSERT_EQ(pipe(pipe_fds), 0);
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        close(pipe_fds[0]);
        const std::uint64_t before = peakRssBytes();
        const auto scenario = buildScenario(label);
        const std::uint64_t growth = peakRssBytes() - before;
        const std::uint64_t bound =
            scenario->composed().size() * sizeof(TraceRecord)
            + scenario->schedule().size() * per_segment + kSlack;
        char report[200];
        const int len = std::snprintf(
            report, sizeof(report),
            "peak RSS grew %llu bytes; bound %llu (%zu records, %zu "
            "segments)",
            static_cast<unsigned long long>(growth),
            static_cast<unsigned long long>(bound),
            scenario->composed().size(), scenario->schedule().size());
        if (write(pipe_fds[1], report, static_cast<std::size_t>(len)) < 0)
            _exit(3);
        _exit(growth <= bound ? 0 : 1);
    }
    close(pipe_fds[1]);
    char report[200] = {};
    const ssize_t got = read(pipe_fds[0], report, sizeof(report) - 1);
    close(pipe_fds[0]);
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status)) << "child died: " << status;
    EXPECT_GT(got, 0);
    EXPECT_EQ(WEXITSTATUS(status), 0) << report;
    std::printf("%s\n", report);
}

/** Why peak-RSS growth cannot be measured here, or nullptr. */
const char *
rssUnmeasurable()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer shadow memory inflates the peak RSS";
#endif
    return peakRssBytes() == 0 ? "no VmHWM in /proc/self/status" : nullptr;
}

TEST(ScenarioMemory, ComposingHoldsTheMixOnce)
{
    if (const char *why = rssUnmeasurable())
        GTEST_SKIP() << why;
    expectCompositionWithin("mix:swim+tomcatv+gcc+wave5@q=50k,n=250k", 0);
}

TEST(ScenarioMemory, ScheduleCostsSixteenBytesPerSegment)
{
    static_assert(sizeof(Scenario::Segment) == 16);
    if (const char *why = rssUnmeasurable())
        GTEST_SKIP() << why;
    // One-record quanta: about one segment per record.
    expectCompositionWithin("mix:swim+tomcatv+gcc+wave5@q=1,n=250k", 16);
}

} // namespace
} // namespace cac
