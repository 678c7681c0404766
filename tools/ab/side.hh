/**
 * @file
 * The interface between the in-process A/B driver (tools/ab/main.cc)
 * and one tree under test. side.cc is compiled once against each
 * tree's headers: against this checkout's src/ as the candidate, and
 * against the CAC_AB_BASE checkout — whose library is built with the
 * cac namespace renamed cac_base — as the base. Only standard types
 * cross this interface, so the two trees' classes never meet.
 */

#ifndef CAC_TOOLS_AB_SIDE_HH
#define CAC_TOOLS_AB_SIDE_HH

#include <cstdint>
#include <string>

namespace ab
{

/** How a target replays the built input. */
enum class Mode
{
    /** In memory, whole: replayInto() for a mix, replay() for a trace. */
    Plain,
    /** Streamed from the input's CACTRC02 file, checksums verified. */
    Stream,
    /** The same stream with checksum verification off. */
    StreamNoVerify,
    /**
     * Plain replay in 8192-record chunks with the metrics registry on
     * and a 4096-access WindowSampler poked at every boundary.
     */
    Metrics,
    /**
     * The input's records time-sharded into 4 slices, replayed on one
     * thread: the sharding machinery's cost, not the host's spare CPUs.
     */
    Shards4,
};

/** One timed replay of the built input through one target. */
struct Replay
{
    double seconds = 0.0;
    /** FNV-1a over every counter the target and the replay reported. */
    std::uint64_t digest = 0;
};

/** One tree's entry points. */
struct Side
{
    /**
     * Build @p input — a "mix:" label, or a Spec95 proxy name built to
     * @p instructions records with @p seed — and keep it until
     * release(), then write its records to a CACTRC02 temp file for
     * the streamed modes. Returns the seconds the build took (the
     * write excluded); exits 1 with a message on an unknown input.
     */
    double (*build)(const std::string &input, std::uint64_t instructions,
                    std::uint64_t seed);
    /** Replay the built input through a fresh @p target label. */
    Replay (*replay)(Mode mode, const std::string &target);
    /** Free the built input and remove its file. */
    void (*release)();
};

/** This checkout's side. */
const Side &candidateSide();

/** The CAC_AB_BASE checkout's side. */
const Side &baseSide();

} // namespace ab

#endif // CAC_TOOLS_AB_SIDE_HH
