#include "core/experiment.hh"

#include "common/stats.hh"

namespace cac
{

CacheStats
runAddressStream(CacheModel &cache, const std::vector<std::uint64_t> &addrs)
{
    cache.accessBatch(addrs.data(), addrs.size(), false);
    return cache.stats();
}

CacheStats
runTraceMemory(CacheModel &cache, const Trace &trace)
{
    MemRunGatherer gather;
    gather.replay(cache, trace.data(), trace.size());
    gather.flush(cache);
    return cache.stats();
}

BenchmarkResult
runCpu(const std::string &name, const CpuConfig &cfg, const Trace &trace)
{
    OooCore core(cfg);
    CpuStats stats = core.run(trace);
    BenchmarkResult row;
    row.name = name;
    row.ipc = stats.ipc();
    row.loadMissPct = stats.loadMissRatioPct();
    return row;
}

TableAverages
averageResults(const std::vector<BenchmarkResult> &rows)
{
    std::vector<double> ipcs;
    std::vector<double> misses;
    for (const auto &row : rows) {
        ipcs.push_back(row.ipc);
        misses.push_back(row.loadMissPct);
    }
    TableAverages avg;
    avg.ipcGeoMean = geometricMean(ipcs);
    avg.missArithMean = arithmeticMean(misses);
    return avg;
}

} // namespace cac
