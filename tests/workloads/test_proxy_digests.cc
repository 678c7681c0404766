/**
 * @file
 * Pins every synthesized stream: each Spec95 proxy, a strideN program,
 * a composed mix (in schedule order, the stream its replay sees) and a
 * call-site coverage stream are rendered as one "name records digest"
 * line each (FNV-1a over every field of every record) and diffed against tests/golden/proxy_digests.txt. A change
 * to how records, addresses or synthetic PCs are produced fails here,
 * whether or not any simulated statistic moves.
 */

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "../trace/builder_sites.hh"
#include "scenario/scenario.hh"
#include "trace/builder.hh"
#include "workloads/spec_proxy.hh"

namespace cac
{
namespace
{

/** Records per proxy, and the proxies' seed. */
constexpr std::size_t kProxyRecords = 100 * 1000;
constexpr std::uint64_t kProxySeed = 3;

/** FNV-1a over every field of every record, little-endian. */
std::uint64_t
digest(const Trace &trace)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t value, unsigned bytes) {
        for (unsigned i = 0; i < bytes; ++i) {
            h ^= (value >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const TraceRecord &rec : trace) {
        mix(rec.addr, 8);
        mix(rec.pc, 4);
        mix(static_cast<std::uint8_t>(rec.op), 1);
        mix(rec.taken, 1);
        mix(static_cast<std::uint8_t>(rec.dst), 1);
        mix(static_cast<std::uint8_t>(rec.src1), 1);
        mix(static_cast<std::uint8_t>(rec.src2), 1);
    }
    return h;
}

std::string
line(const std::string &name, const Trace &trace)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s %zu %016" PRIx64 "\n",
                  name.c_str(), trace.size(), digest(trace));
    return buf;
}

/** The stream a mix's replay sees: its segments, in schedule order. */
Trace
scheduleOrder(const Scenario &scenario)
{
    Trace out;
    for (const Scenario::Segment &seg : scenario.schedule()) {
        const auto first = scenario.composed().begin()
                           + static_cast<std::ptrdiff_t>(seg.offset);
        out.insert(out.end(), first,
                   first + static_cast<std::ptrdiff_t>(seg.count));
    }
    return out;
}

std::string
renderDigests()
{
    std::string out;
    for (const SpecProxyInfo &info : specProxyList()) {
        out += line(info.name,
                    buildSpecProxy(info.name, kProxyRecords, kProxySeed));
    }
    for (const char *label :
         {"mix:stride512@n=60k", "mix:swim+gcc+stride512@q=7919,n=60k,phase=5k"})
        out += line(label, scheduleOrder(*buildScenario(label)));
    Trace sites;
    TraceBuilder builder(sites);
    test::emitKeyCoverage(builder);
    out += line("key-coverage", sites);
    return out;
}

TEST(ProxyDigests, MatchGolden)
{
    std::ifstream in(CAC_GOLDEN_DIR "/proxy_digests.txt");
    ASSERT_TRUE(in) << "cannot open " CAC_GOLDEN_DIR "/proxy_digests.txt";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(renderDigests(), golden.str());
}

} // anonymous namespace
} // namespace cac
