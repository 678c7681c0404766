/**
 * @file
 * Shared experiment drivers used by benches, examples and tests:
 * feeding address streams and instruction traces through cache models
 * and the CPU model, and aggregating per-benchmark results the way the
 * paper's tables do (arithmetic-mean miss ratios, geometric-mean IPC).
 */

#ifndef CAC_CORE_EXPERIMENT_HH
#define CAC_CORE_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache_model.hh"
#include "cpu/config.hh"
#include "cpu/ooo_core.hh"
#include "trace/record.hh"

namespace cac
{

/** Run a pure load-address stream through a cache model. */
CacheStats runAddressStream(CacheModel &cache,
                            const std::vector<std::uint64_t> &addrs);

/**
 * Gathers the memory operations of an instruction stream into mixed
 * load/store batches, so a sink sees one accessMixed() per
 * kMaxRun memory operations instead of one virtual access() per record
 * (or one accessBatch() per same-kind run — loads and stores alternate
 * every few records in real traces, so kind-split runs average under
 * three accesses). Restartable: replay() may be called with
 * consecutive stream chunks (the partially-gathered batch carries
 * over), so the single batching rule serves both whole-trace replay
 * (runTraceMemory) and chunked streaming (CacheTarget). The sink is
 * anything with an accessMixed(addrs, writes, n) member — a CacheModel
 * or a CoherentSystem.
 */
class MemRunGatherer
{
  public:
    /** Batch size of the gathered runs (the engine's hot-path unit). */
    static constexpr std::size_t kMaxRun = 4096;

    MemRunGatherer()
        : addrs_(new std::uint64_t[kMaxRun]), writes_(new bool[kMaxRun])
    {}

    /** Feed the memory operations of @p recs[0..n) into @p sink. */
    template <typename Sink>
    void
    replay(Sink &sink, const TraceRecord *recs, std::size_t n)
    {
        // Access order is preserved exactly, so stats match a scalar
        // loop.
        for (std::size_t i = 0; i < n; ++i) {
            const TraceRecord &rec = recs[i];
            if (!isMemOp(rec.op))
                continue;
            if (n_ == kMaxRun)
                flush(sink);
            addrs_[n_] = rec.addr;
            writes_[n_] = rec.op == OpClass::Store;
            ++n_;
        }
    }

    /** Issue the partially-gathered batch, preserving access order. */
    template <typename Sink>
    void
    flush(Sink &sink)
    {
        if (n_ != 0) {
            sink.accessMixed(addrs_.get(), writes_.get(), n_);
            n_ = 0;
        }
    }

  private:
    std::unique_ptr<std::uint64_t[]> addrs_;
    std::unique_ptr<bool[]> writes_;
    std::size_t n_ = 0; ///< gathered accesses pending in the batch
};

/** Run only the memory operations of @p trace through a cache model. */
CacheStats runTraceMemory(CacheModel &cache, const Trace &trace);

/** One benchmark row of a Table-2-style run. */
struct BenchmarkResult
{
    std::string name;
    double ipc = 0.0;
    double loadMissPct = 0.0;
};

/** Simulate @p trace on configuration @p cfg. */
BenchmarkResult runCpu(const std::string &name, const CpuConfig &cfg,
                       const Trace &trace);

/** Aggregates for a set of rows (paper's averaging conventions). */
struct TableAverages
{
    double ipcGeoMean = 0.0;       ///< IPC averaged geometrically
    double missArithMean = 0.0;    ///< miss ratios averaged arithmetically
};

TableAverages averageResults(const std::vector<BenchmarkResult> &rows);

} // namespace cac

#endif // CAC_CORE_EXPERIMENT_HH
