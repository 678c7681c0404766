#include "cpu/timing_cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cac
{

TimingCache::TimingCache(const CpuConfig &cfg)
    : cfg_(cfg), mshrs_(cfg.mshrs)
{
    const CacheGeometry geom = cfg.l1Geometry();
    array_ = std::make_unique<SetAssocCache>(
        geom,
        makeIndexFn(cfg.indexKind, geom.setBits(), geom.ways(),
                    cfg.hashBlockBits()),
        ReplKind::Lru, WriteAllocate::No);
}

LoadTiming
TimingCache::load(std::uint64_t addr, std::uint64_t start_tick)
{
    const std::uint64_t block = array_->geometry().blockAddr(addr);
    LoadTiming t;

    // Retire any fills that have completed (their data is usable by
    // the time this access reads the array).
    mshrs_.retireReady(start_tick, [](std::uint64_t) {});

    if (Mshr *pending = mshrs_.find(block)) {
        // Secondary miss on an in-flight line: merge, no new bus
        // transaction. Functionally the line was filled at allocation,
        // so record the access as a hit in the array but take the
        // in-flight timing. Tables 2-3 count line misses, which the
        // primary miss already recorded.
        array_->access(addr, false);
        ++pending->targets;
        t.readyTick = std::max(pending->readyTick,
                               start_tick + cfg_.hitCycles);
        return t;
    }

    // Fused probe + access: one index evaluation and one tag scan.
    // With a full MSHR file only a hit may proceed (allow_fill=false
    // leaves the array untouched on a miss, exactly like the old
    // probe-then-reject).
    AccessResult r;
    if (!array_->tryAccess(addr, false, !mshrs_.full(), r)) {
        t.accepted = false;
        return t;
    }
    if (r.hit) {
        t.readyTick = start_tick + cfg_.hitCycles;
        return t;
    }

    // Primary miss: allocate an MSHR; the line transfer needs the bus
    // for busCyclesPerLine cycles and completes no earlier than the
    // full miss penalty.
    t.miss = true;
    const std::uint64_t earliest =
        start_tick + cfg_.hitCycles + cfg_.missPenaltyCycles;
    const std::uint64_t bus_done =
        std::max(bus_free_, start_tick) + cfg_.busCyclesPerLine;
    t.readyTick = std::max(earliest, bus_done);
    bus_free_ = bus_done;
    mshrs_.allocate(block, t.readyTick);
    return t;
}

bool
TimingCache::wouldAccept(std::uint64_t addr, std::uint64_t now) const
{
    const std::uint64_t block = array_->geometry().blockAddr(addr);
    if (mshrs_.find(block) != nullptr || array_->probe(addr))
        return true;
    if (!mshrs_.full())
        return true;
    // A full file still accepts when some entry's fill completes by the
    // access tick (load() retires it before allocating).
    return mshrs_.anyReadyBy(now);
}

std::uint64_t
TimingCache::storeCommit(std::uint64_t addr, std::uint64_t now)
{
    // Write-through, no-allocate: update the line if present, send the
    // word over the bus either way (one cycle for a <=8B store).
    array_->access(addr, true);
    const std::uint64_t done = std::max(bus_free_, now) + 1;
    bus_free_ = done;
    return done;
}

} // namespace cac
