/**
 * @file
 * Synthetic Spec95 workload proxies.
 *
 * The paper evaluates on the 18 Spec95 programs (Table 2). Those traces
 * are not redistributable, so each program is replaced by a synthetic
 * kernel that reproduces its qualitative cache personality:
 *
 *  - tomcatv / swim / wave5 — the paper's three high-conflict programs:
 *    multiple large arrays laid out congruent modulo the conventional
 *    index (power-of-two strides and co-mapped bases), so a conventional
 *    8KB 2-way cache thrashes while a conflict-free placement sees only
 *    compulsory/capacity misses;
 *  - the 15 remaining programs — moderate/low-conflict mixes (streaming
 *    with decorrelated bases, pointer chasing, hash tables, branchy
 *    integer work) whose miss ratio is placement-insensitive.
 *
 * DESIGN.md section 2 documents this substitution. The proxies are
 * deterministic given (name, targetInstructions, seed).
 */

#ifndef CAC_WORKLOADS_SPEC_PROXY_HH
#define CAC_WORKLOADS_SPEC_PROXY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/record.hh"

namespace cac
{

/** Metadata for one proxy. */
struct SpecProxyInfo
{
    std::string name;    ///< Spec95 program the proxy stands in for
    bool isFp;           ///< FP benchmark (vs integer)
    bool highConflict;   ///< one of the paper's three "bad" programs
    std::string pattern; ///< one-line description of the kernel
};

/** The 18 proxies in the paper's Table 2 order (integer then FP). */
const std::vector<SpecProxyInfo> &specProxyList();

/** Lookup by name; fatal if unknown. */
const SpecProxyInfo &specProxyInfo(const std::string &name);

/**
 * Is @p name a known proxy? The soft-error form for label parsers
 * (the scenario mix grammar) that want a diagnostic instead of the
 * fatal path.
 */
bool knownSpecProxy(const std::string &name);

/**
 * The most records one synthesized program may be asked for: 2^28
 * records, 4 GiB in memory. Front ends (the mix grammar's n=,
 * cac_tracegen) reject larger counts with a diagnostic; below it the
 * target + target / 8 reserve cannot wrap.
 */
constexpr std::size_t kMaxProgramRecords = std::size_t{1} << 28;

/**
 * Build the dynamic trace of a proxy.
 *
 * @param name proxy name (e.g. "tomcatv").
 * @param target_instructions approximate trace length (the builder
 *        stops at the first loop boundary past the target); at most
 *        kMaxProgramRecords.
 * @param seed determinism knob for the randomized patterns.
 */
Trace buildSpecProxy(const std::string &name,
                     std::size_t target_instructions,
                     std::uint64_t seed = 1);

/**
 * Append a proxy's dynamic trace to @p trace, after the records it
 * already holds (which are left untouched): exactly the records
 * buildSpecProxy() returns for the same arguments. The scenario engine
 * builds every program straight into its composed buffer this way.
 * Reserves nothing: the caller sizes @p trace (buildSpecProxy()
 * reserves target_instructions + target_instructions / 8 records, room
 * for a proxy's overshoot past its target at scenario-sized targets).
 */
void appendSpecProxy(Trace &trace, const std::string &name,
                     std::size_t target_instructions,
                     std::uint64_t seed = 1);

} // namespace cac

#endif // CAC_WORKLOADS_SPEC_PROXY_HH
