/**
 * @file
 * The scenario layer's memory bound: every program is built straight
 * into the composed buffer and replayed where it lies, so composing a
 * mix raises the process's peak RSS by the composed trace alone (plus
 * allocator slack), not by a second copy of the mix. Measured in a
 * forked child, so the peak is the composition's alone.
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

TEST(ScenarioMemory, ComposingHoldsTheMixOnce)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "sanitizer shadow memory inflates the peak RSS";
#endif
    if (peakRssBytes() == 0)
        GTEST_SKIP() << "no VmHWM in /proc/self/status";

    const std::string label = "mix:swim+tomcatv+gcc+wave5@q=50k,n=250k";
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
            scenario->composed().size() * sizeof(TraceRecord) + kSlack;
        char report[160];
        const int len = std::snprintf(
            report, sizeof(report),
            "peak RSS grew %llu bytes; bound %llu (%zu records)",
            static_cast<unsigned long long>(growth),
            static_cast<unsigned long long>(bound),
            scenario->composed().size());
        if (write(pipe_fds[1], report, static_cast<std::size_t>(len)) < 0)
            _exit(3);
        _exit(growth <= bound ? 0 : 1);
    }
    close(pipe_fds[1]);
    char report[160] = {};
    const ssize_t got = read(pipe_fds[0], report, sizeof(report) - 1);
    close(pipe_fds[0]);
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status)) << "child died: " << status;
    EXPECT_GT(got, 0);
    EXPECT_EQ(WEXITSTATUS(status), 0) << report;
    std::printf("%s\n", report);
}

} // namespace
} // namespace cac
