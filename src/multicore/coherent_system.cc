#include "multicore/coherent_system.hh"

#include "cache/set_assoc.hh"
#include "common/logging.hh"

namespace cac
{

namespace
{

/** The HoleStats counter list (delta/accumulate cannot drift apart). */
constexpr std::uint64_t HoleStats::*kHoleFields[] = {
    &HoleStats::l1Misses,
    &HoleStats::l2Misses,
    &HoleStats::l2Replacements,
    &HoleStats::inclusionInvalidates,
    &HoleStats::holesCreated,
    &HoleStats::holeRefills};

/** McCoreStats counter list (delta/accumulate cannot drift apart). */
constexpr std::uint64_t McCoreStats::*kMcCoreFields[] = {
    &McCoreStats::l2EvictionsByOthers,
    &McCoreStats::interCoreConflictMisses};

/** A one-element L1 vector (the one-core constructor's). */
std::vector<std::unique_ptr<CacheModel>>
oneL1(std::unique_ptr<CacheModel> l1)
{
    std::vector<std::unique_ptr<CacheModel>> l1s;
    l1s.push_back(std::move(l1));
    return l1s;
}

} // anonymous namespace

HoleStats
holeStatsDelta(const HoleStats &now, const HoleStats &then)
{
    HoleStats d;
    for (auto field : kHoleFields)
        d.*field = now.*field - then.*field;
    return d;
}

void
holeStatsAccumulate(HoleStats &into, const HoleStats &delta)
{
    for (auto field : kHoleFields)
        into.*field += delta.*field;
}

McCoreStats
mcCoreStatsDelta(const McCoreStats &now, const McCoreStats &then)
{
    McCoreStats d;
    d.l1 = cacheStatsDelta(now.l1, then.l1);
    d.holes = holeStatsDelta(now.holes, then.holes);
    for (auto field : kMcCoreFields)
        d.*field = now.*field - then.*field;
    return d;
}

std::uint64_t
MultiCoreStats::totalInterCoreConflictMisses() const
{
    std::uint64_t total = 0;
    for (const McCoreStats &core : cores)
        total += core.interCoreConflictMisses;
    return total;
}

std::uint64_t
MultiCoreStats::totalL2EvictionsByOthers() const
{
    std::uint64_t total = 0;
    for (const McCoreStats &core : cores)
        total += core.l2EvictionsByOthers;
    return total;
}

MultiCoreStats
multiCoreStatsDelta(const MultiCoreStats &now, const MultiCoreStats &then)
{
    CAC_ASSERT(then.cores.empty()
               || then.cores.size() == now.cores.size());
    MultiCoreStats d;
    d.cores.resize(now.cores.size());
    for (std::size_t i = 0; i < now.cores.size(); ++i) {
        d.cores[i] = then.cores.empty()
            ? now.cores[i]
            : mcCoreStatsDelta(now.cores[i], then.cores[i]);
    }
    return d;
}

CoherentSystem::CoherentSystem(std::vector<std::unique_ptr<CacheModel>> l1s,
                               std::unique_ptr<CacheModel> l2,
                               PageMap page_map,
                               std::uint64_t window_bytes)
    : l1s_(std::move(l1s)), l2_(std::move(l2)),
      page_map_(std::move(page_map)), window_bytes_(window_bytes)
{
    CAC_ASSERT(!l1s_.empty() && l2_);
    CAC_ASSERT(l1s_.size() <= kMaxCores);
    CAC_ASSERT(window_bytes_ > 0);
    for (const auto &l1 : l1s_) {
        CAC_ASSERT(l1);
        if (l1->geometry().blockBytes() != l2_->geometry().blockBytes())
            fatal("L1 and L2 must share a block size in this hierarchy");
        if (l1->geometry().blockBytes()
            != l1s_.front()->geometry().blockBytes())
            fatal("all private L1s must share a block size");
    }
    const std::uint64_t block_bytes = l1s_.front()->geometry().blockBytes();
    if (page_map_.pageBytes() < block_bytes)
        fatal("page size smaller than the cache block size");
    // A window edge inside a block would route its two halves to two
    // cores, and so put one physical block in two L1s.
    if (l1s_.size() > 1 && window_bytes_ % block_bytes != 0) {
        fatal("ASID window of %llu bytes is not a whole number of "
              "%llu-byte blocks",
              static_cast<unsigned long long>(window_bytes_),
              static_cast<unsigned long long>(block_bytes));
    }
    l1_sa_.reserve(l1s_.size());
    for (auto &l1 : l1s_)
        l1_sa_.push_back(dynamic_cast<SetAssocCache *>(l1.get()));
    l2_sa_ = dynamic_cast<SetAssocCache *>(l2_.get());
    mc_.cores.resize(l1s_.size());
    holes_.resize(l1s_.size());
    // Sized from the lines they mirror; both can outgrow this (see
    // the file comment) and then double as usual.
    for (std::size_t c = 0; c < l1s_.size(); ++c)
        holes_[c].reserve(l1s_[c]->geometry().numBlocks());
    if (l1s_.size() > 1)
        peer_evicted_.reserve(l2_->geometry().numBlocks());
}

CoherentSystem::CoherentSystem(std::unique_ptr<CacheModel> l1,
                               std::unique_ptr<CacheModel> l2,
                               PageMap page_map)
    // With one core every address routes to core 0, whatever the
    // window.
    : CoherentSystem(oneL1(std::move(l1)), std::move(l2),
                     std::move(page_map), ~std::uint64_t{0})
{
}

bool
CoherentSystem::access(std::uint64_t vaddr, bool is_write)
{
    return accessOn(coreFor(vaddr), vaddr, is_write);
}

bool
CoherentSystem::accessOn(unsigned core, std::uint64_t vaddr, bool is_write)
{
    if (l1s_[core]->access(vaddr, is_write).hit)
        return true;
    missPath(core, vaddr, is_write);
    return false;
}

void
CoherentSystem::enterWindow(std::uint64_t vaddr)
{
    window_lo_ = vaddr - vaddr % window_bytes_;
    window_core_ = coreFor(vaddr);
}

/** What one core's L1 kernel reports back: every miss. */
struct CoherentSystem::CoreEvents
{
    CoherentSystem &sys;
    unsigned core;
    const std::uint64_t *vaddrs;

    void miss(std::size_t i, bool is_write, const AccessResult &)
    {
        sys.missPath(core, vaddrs[i], is_write);
    }
};

// Inlined into batchKernel(): short batches (a demultiplexed run,
// the tail of a stream) must cost no second call.
template <typename Kind>
[[gnu::always_inline]] inline void
CoherentSystem::coreBatch(unsigned core, const std::uint64_t *vaddrs,
                          std::size_t n, Kind kind)
{
    SetAssocCache *sa = l1_sa_[core];
    if (sa == nullptr) {
        for (std::size_t i = 0; i < n; ++i)
            accessOn(core, vaddrs[i], kind.isWrite(i));
        return;
    }
    // L1 hits — the overwhelming majority — stay inside the cache's
    // own batch kernel; only misses come back out into the
    // translation and Inclusion path.
    sa->batchKernel(vaddrs, n, kind, CoreEvents{*this, core, vaddrs});
}

template <typename Kind>
void
CoherentSystem::batchKernel(const std::uint64_t *vaddrs, std::size_t n,
                            Kind kind)
{
    if (l1s_.size() == 1) {
        coreBatch(0, vaddrs, n, kind);
        return;
    }
    // Demultiplex into maximal same-core runs: within a scenario
    // quantum every address belongs to one program (one ASID window,
    // one core), so runs are long and the per-core fast path applies.
    // A run grows while addresses stay inside the current window's
    // [lo, lo + window) bounds, which persist across calls; only a
    // window change costs a division.
    std::size_t base = 0;
    while (base < n) {
        if (vaddrs[base] - window_lo_ >= window_bytes_)
            enterWindow(vaddrs[base]);
        const unsigned core = window_core_;
        std::size_t end = base + 1;
        for (;;) {
            while (end < n && vaddrs[end] - window_lo_ < window_bytes_)
                ++end;
            if (end == n)
                break;
            enterWindow(vaddrs[end]);
            if (window_core_ != core)
                break;
            ++end;
        }
        coreBatch(core, vaddrs + base, end - base, kind.from(base));
        base = end;
    }
}

void
CoherentSystem::accessBatch(const std::uint64_t *vaddrs, std::size_t n,
                            bool is_write)
{
    batchKernel(vaddrs, n, UniformKind{is_write});
}

void
CoherentSystem::accessMixed(const std::uint64_t *vaddrs,
                            const bool *writes, std::size_t n)
{
    batchKernel(vaddrs, n, MixedKind{writes});
}

AccessResult
CoherentSystem::l2Access(std::uint64_t pblock, bool is_write)
{
    if (l2_sa_ != nullptr) {
        const IndexPlan &plan = l2_sa_->indexPlan();
        if (plan.packedCapable())
            return l2_sa_->accessPacked(pblock, plan.packedOne(pblock),
                                        is_write);
    }
    return l2_->access(l2_->geometry().byteAddr(pblock), is_write);
}

void
CoherentSystem::missPath(unsigned core, std::uint64_t vaddr, bool is_write)
{
    // The virtual-real protocol of sections 3.1-3.3 (holes, Inclusion).
    HoleStats &holes = mc_.cores[core].holes;

    ++holes.l1Misses;
    if (holes_[core].erase(l1s_[core]->geometry().blockAddr(vaddr)))
        ++holes.holeRefills;

    // Translation after the L1 access mirrors the virtual-real
    // pipeline: L1 is probed before (or in parallel with) the TLB.
    const std::uint64_t pblock =
        l2_->geometry().blockAddr(page_map_.translate(vaddr));

    // Shared-L2 lookup with the physical address.
    const AccessResult l2_result = l2Access(pblock, is_write);
    if (l2_result.hit)
        return;
    ++holes.l2Misses;
    // Inter-core conflict attribution: this miss is on a line another
    // core's fill pushed out of the L2. (Only the owner misses on it.)
    if (peer_evicted_.erase(pblock))
        ++mc_.cores[core].interCoreConflictMisses;
    if (!l2_result.evictedAddr)
        return;

    ++holes.l2Replacements;
    // Inclusion demands the victim's data leave the one L1 that may
    // hold it: its owner's, at its one virtual address. A victim that
    // this miss's own L1 fill displaced is gone already, so no hole
    // appears (the paper's P_d complement). One core owns everything,
    // without a division.
    const std::uint64_t victim_vaddr =
        page_map_.untranslate(*l2_result.evictedAddr);
    const unsigned owner = l1s_.size() == 1 ? 0 : coreFor(victim_vaddr);
    CacheModel &owner_l1 = *l1s_[owner];
    if (owner_l1.invalidate(victim_vaddr)) {
        HoleStats &owner_holes = mc_.cores[owner].holes;
        ++owner_holes.inclusionInvalidates;
        ++owner_holes.holesCreated;
        holes_[owner].insert(owner_l1.geometry().blockAddr(victim_vaddr));
    }
    if (owner != core) {
        ++mc_.cores[owner].l2EvictionsByOthers;
        peer_evicted_.insert(
            l2_->geometry().blockAddr(*l2_result.evictedAddr));
    }
}

MultiCoreStats
CoherentSystem::stats() const
{
    MultiCoreStats out = mc_;
    for (std::size_t i = 0; i < l1s_.size(); ++i)
        out.cores[i].l1 = l1s_[i]->stats();
    return out;
}

CacheStats
CoherentSystem::aggregateL1() const
{
    CacheStats total;
    for (const auto &l1 : l1s_)
        cacheStatsAccumulate(total, l1->stats());
    return total;
}

HoleStats
CoherentSystem::aggregateHoles() const
{
    HoleStats total;
    for (const McCoreStats &core : mc_.cores)
        holeStatsAccumulate(total, core.holes);
    return total;
}

bool
CoherentSystem::checkCoherence() const
{
    bool ok = true;
    for (unsigned c = 0; c < numCores(); ++c) {
        l1s_[c]->forEachBlock([&](std::uint64_t vaddr) {
            const std::optional<std::uint64_t> paddr =
                page_map_.mapped(vaddr);
            if (coreFor(vaddr) != c || !paddr
                || page_map_.untranslate(*paddr) != vaddr)
                ok = false;
        });
    }
    return ok;
}

bool
CoherentSystem::checkInclusion() const
{
    bool ok = true;
    for (const auto &l1 : l1s_) {
        l1->forEachBlock([&](std::uint64_t vaddr) {
            const std::optional<std::uint64_t> paddr =
                page_map_.mapped(vaddr);
            if (!paddr || !l2_->probe(*paddr))
                ok = false;
        });
    }
    return ok;
}

void
CoherentSystem::flushL1s()
{
    for (auto &l1 : l1s_)
        l1->flush();
    for (auto &holes : holes_)
        holes.clear();
}

} // namespace cac
