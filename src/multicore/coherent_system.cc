#include "multicore/coherent_system.hh"

#include <bit>

#include "cache/set_assoc.hh"
#include "common/bits.hh"
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
    &HoleStats::holeRefills,
    &HoleStats::externalInvalidates,
    &HoleStats::aliasRemovals};

/** McCoreStats counter list (delta/accumulate cannot drift apart). */
constexpr std::uint64_t McCoreStats::*kMcCoreFields[] = {
    &McCoreStats::interventionsReceived,
    &McCoreStats::interventionsSupplied,
    &McCoreStats::invalidationsReceived,
    &McCoreStats::upgrades,
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
    d.interventions = now.interventions - then.interventions;
    d.invalidationMessages =
        now.invalidationMessages - then.invalidationMessages;
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
    if (page_map_.pageBytes() < l1s_.front()->geometry().blockBytes())
        fatal("page size smaller than the cache block size");
    // Block numbers then stay below kModifiedBit.
    CAC_ASSERT(l1s_.front()->geometry().blockBytes() > 1);
    l1_sa_.reserve(l1s_.size());
    for (auto &l1 : l1s_)
        l1_sa_.push_back(dynamic_cast<SetAssocCache *>(l1.get()));
    l2_sa_ = dynamic_cast<SetAssocCache *>(l2_.get());
    mc_.cores.resize(l1s_.size());
    l1_contents_.resize(l1s_.size());
    holes_.resize(l1s_.size());
    // A reverse map holds one entry per resident L1 line and the
    // directory one per block any L1 holds. A victim L1's buffer lines,
    // holes and attribution can outgrow these; their tables then
    // double as usual.
    std::size_t l1_lines = 0;
    for (std::size_t c = 0; c < l1s_.size(); ++c) {
        const std::size_t lines = l1s_[c]->geometry().numBlocks();
        l1_contents_[c].reserve(lines);
        holes_[c].reserve(lines);
        l1_lines += lines;
    }
    if (l1s_.size() > 1) {
        dir_.reserve(l1_lines);
        attr_.reserve(l2_->geometry().numBlocks());
    }
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
CoherentSystem::access(unsigned core, std::uint64_t vaddr, bool is_write)
{
    CAC_ASSERT(core < l1s_.size());
    AccessResult l1_result = l1s_[core]->access(vaddr, is_write);
    if (l1_result.hit) {
        // A two-probe promotion can push a line out on a hit. (The
        // SetAssocCache batch kernel never departs on a hit.)
        unlinkDeparture(core, l1_result);
        if (is_write && l1s_.size() > 1)
            writeHitUpgrade(core, vaddr);
        return true;
    }
    missPath(core, vaddr, is_write, l1_result);
    return false;
}

void
CoherentSystem::enterWindow(std::uint64_t vaddr)
{
    window_lo_ = vaddr - vaddr % window_bytes_;
    window_core_ = coreFor(vaddr);
}

/**
 * What one core's L1 kernel reports back: every miss enters the
 * virtual-real miss path, and with several cores every store hit
 * checks for an S -> M upgrade (one core has nobody to upgrade
 * against, so its store hits are not reported at all).
 */
template <bool Multi>
struct CoherentSystem::CoreEvents
{
    static constexpr bool kStoreHits = Multi;

    CoherentSystem &sys;
    unsigned core;
    const std::uint64_t *vaddrs;

    void miss(std::size_t i, bool is_write, const AccessResult &r)
    {
        sys.missPath(core, vaddrs[i], is_write, r);
    }

    void storeHit(std::size_t i) { sys.writeHitUpgrade(core, vaddrs[i]); }
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
            access(core, vaddrs[i], kind.isWrite(i));
        return;
    }
    // L1 hits — the overwhelming majority — stay inside the cache's
    // own batch kernel; only misses (and, with several cores, store
    // hits) come back out into the translation + coherence path.
    if (l1s_.size() > 1)
        sa->batchKernel(vaddrs, n, kind, CoreEvents<true>{*this, core, vaddrs});
    else
        sa->batchKernel(vaddrs, n, kind,
                        CoreEvents<false>{*this, core, vaddrs});
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

void
CoherentSystem::writeHitUpgrade(unsigned core, std::uint64_t vaddr)
{
    // Translation is memoized per page, so the extra lookup here
    // consumes no randomness and perturbs nothing. A line this core
    // already holds Modified is settled by its reverse-map entry
    // alone, without a directory probe.
    const std::uint64_t pblock =
        l2_->geometry().blockAddr(page_map_.translate(vaddr));
    std::uint64_t *resident = l1_contents_[core].find(pblock);
    CAC_ASSERT(resident != nullptr);
    if ((*resident & kModifiedBit) != 0)
        return;
    DirEntry &entry = dir_.insert(pblock).first;
    if (entry.owner == core)
        return;
    ++mc_.cores[core].upgrades;
    invalidateOtherCopies(core, pblock, entry);
    entry.owner = static_cast<std::uint8_t>(core);
    *resident |= kModifiedBit;
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
CoherentSystem::invalidateOtherCopies(unsigned core, std::uint64_t pblock,
                                      DirEntry &entry)
{
    const std::uint64_t self = std::uint64_t{1} << core;
    for (std::uint64_t others = entry.sharers & ~self; others != 0;
         others &= others - 1) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(others));
        const std::uint64_t *resident = l1_contents_[j].find(pblock);
        CAC_ASSERT(resident);
        l1s_[j]->invalidate(
            l1s_[j]->geometry().byteAddr(vblockOf(*resident)));
        l1_contents_[j].erase(pblock);
        ++mc_.cores[j].invalidationsReceived;
        ++mc_.invalidationMessages;
    }
    entry.sharers &= self;
    if (entry.owner != core)
        entry.owner = kNoCore;
}

// Inlined: every L1 departure on the miss path comes through here.
[[gnu::always_inline]] inline void
CoherentSystem::unlinkL1(unsigned core, std::uint64_t pblock)
{
    l1_contents_[core].erase(pblock);
    DirEntry *entry = dir_.find(pblock);
    if (entry == nullptr)
        return;
    entry->sharers &= ~(std::uint64_t{1} << core);
    if (entry->owner == core)
        entry->owner = kNoCore;
    if (entry->unused())
        dir_.erase(pblock);
}

[[gnu::always_inline]] inline void
CoherentSystem::unlinkDeparture(unsigned core, const AccessResult &r)
{
    if (r.evictedAddr)
        unlinkL1(core, l2_->geometry().blockAddr(
                           page_map_.translate(*r.evictedAddr)));
}

bool
CoherentSystem::joinOnMiss(unsigned core, std::uint64_t pblock,
                           bool is_write, std::uint64_t *resident,
                           DirEntry &entry)
{
    if (resident != nullptr)
        entry.sharers |= std::uint64_t{1} << core;
    bool served = false;
    const unsigned peer = entry.owner;
    if (peer != kNoCore && peer != core) {
        ++mc_.interventions;
        ++mc_.cores[core].interventionsReceived;
        ++mc_.cores[peer].interventionsSupplied;
        // Read: the peer keeps a Shared copy (M -> S); a store
        // invalidates it below. Either way the old ownership ends.
        entry.owner = kNoCore;
        if (std::uint64_t *held = l1_contents_[peer].find(pblock))
            *held &= ~kModifiedBit;
        served = true;
    }
    if (is_write) {
        invalidateOtherCopies(core, pblock, entry);
        if (resident != nullptr) {
            entry.owner = static_cast<std::uint8_t>(core);
            *resident |= kModifiedBit;
        }
    }
    return served;
}

std::uint64_t
CoherentSystem::releaseL2Victim(unsigned core, std::uint64_t victim_pblock)
{
    Attribution *attr = attr_.find(victim_pblock);
    if (attr != nullptr && attr->filler != kNoCore) {
        if (attr->filler != core) {
            ++mc_.cores[attr->filler].l2EvictionsByOthers;
            attr->evictor = static_cast<std::uint8_t>(core);
        } else {
            attr->evictor = kNoCore;
        }
        attr->filler = kNoCore;
        if (attr->unused())
            attr_.erase(victim_pblock);
    }
    const DirEntry *entry = dir_.find(victim_pblock);
    if (entry == nullptr)
        return 0;
    const std::uint64_t sharers = entry->sharers;
    dir_.erase(victim_pblock);
    return sharers;
}

void
CoherentSystem::missPath(unsigned core, std::uint64_t vaddr, bool is_write,
                         const AccessResult &l1_result)
{
    // The virtual-real protocol of sections 3.1-3.3 (holes, the
    // one-alias rule, Inclusion). Every coherence step is guarded by
    // `multi` and the larger ones live in the directory helpers, so a
    // one-core system never touches dir_ or attr_ and its miss path
    // stays short.
    CacheModel &l1 = *l1s_[core];
    HoleStats &holes = mc_.cores[core].holes;
    const bool multi = l1s_.size() > 1;

    const std::uint64_t vblock = l1.geometry().blockAddr(vaddr);

    ++holes.l1Misses;
    if (holes_[core].erase(vblock))
        ++holes.holeRefills;

    // Translation after the L1 access mirrors the virtual-real
    // pipeline: L1 is probed before (or in parallel with) the TLB.
    const std::uint64_t pblock =
        l2_->geometry().blockAddr(page_map_.translate(vaddr));

    unlinkDeparture(core, l1_result);
    // The filled line's reverse-map entry. No other entry of this
    // core's map is inserted or erased below, so the pointer stays
    // valid.
    std::uint64_t *filled = nullptr;
    if (l1_result.filled) {
        // Virtual-alias rule: at most one virtual copy of a physical
        // block may live in one L1. If a different virtual block
        // already maps this physical block, shoot it down first; the
        // new alias inherits its Modified state with its directory
        // entry.
        auto [resident, fresh] = l1_contents_[core].insert(pblock);
        if (!fresh && vblockOf(resident) != vblock) {
            if (l1.invalidate(l1.geometry().byteAddr(vblockOf(resident))))
                ++holes.aliasRemovals;
        }
        resident = vblock | (resident & kModifiedBit);
        filled = &resident;
    }

    // Coherence: a peer holding the line Modified serves the miss
    // (L1-to-L1 intervention, no L2 involvement); a store shoots down
    // every other copy and takes ownership.
    if (multi) {
        DirEntry &entry = dir_.insert(pblock).first;
        const bool served = joinOnMiss(core, pblock, is_write, filled, entry);
        if (entry.unused())
            dir_.erase(pblock);
        if (served)
            return;
    }

    // Shared-L2 lookup with the physical address.
    const AccessResult l2_result = l2Access(pblock, is_write);
    if (!l2_result.hit) {
        ++holes.l2Misses;
        if (multi) {
            // Inter-core conflict attribution: this miss is on a line
            // a different core's fill pushed out of the L2.
            Attribution &attr = attr_.insert(pblock).first;
            if (attr.evictor != kNoCore && attr.evictor != core)
                ++mc_.cores[core].interCoreConflictMisses;
            attr.evictor = kNoCore;
            if (l2_result.filled)
                attr.filler = static_cast<std::uint8_t>(core);
            if (attr.unused())
                attr_.erase(pblock);
        }
    }
    if (l2_result.hit || !l2_result.evictedAddr)
        return;

    ++holes.l2Replacements;
    const std::uint64_t victim_pblock =
        l2_->geometry().blockAddr(*l2_result.evictedAddr);
    // Inclusion demands this data leave every private L1. One core has
    // no directory: probe its reverse map directly. A victim that this
    // miss's own L1 fill displaced was unlinked above and is not found:
    // no hole appears (the paper's P_d complement).
    for (std::uint64_t holders =
             multi ? releaseL2Victim(core, victim_pblock) : 1;
         holders != 0; holders &= holders - 1) {
        const unsigned j = static_cast<unsigned>(std::countr_zero(holders));
        const std::uint64_t *resident = l1_contents_[j].find(victim_pblock);
        if (resident == nullptr)
            continue;
        ++mc_.cores[j].holes.inclusionInvalidates;
        const std::uint64_t victim_vblock = vblockOf(*resident);
        if (l1s_[j]->invalidate(
                l1s_[j]->geometry().byteAddr(victim_vblock))) {
            ++mc_.cores[j].holes.holesCreated;
            holes_[j].insert(victim_vblock);
        }
        l1_contents_[j].erase(victim_pblock);
    }
}

void
CoherentSystem::externalInvalidate(std::uint64_t paddr)
{
    ++external_invalidates_;
    l2_->invalidate(paddr);
    const std::uint64_t pblock = l2_->geometry().blockAddr(paddr);
    for (unsigned c = 0; c < l1s_.size(); ++c) {
        if (const std::uint64_t *resident = l1_contents_[c].find(pblock)) {
            l1s_[c]->invalidate(
                l1s_[c]->geometry().byteAddr(vblockOf(*resident)));
            unlinkL1(c, pblock);
        }
    }
    // The line left the L2 without a core's fill evicting it.
    if (Attribution *attr = attr_.find(pblock)) {
        attr->filler = kNoCore;
        if (attr->unused())
            attr_.erase(pblock);
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
    total.externalInvalidates = external_invalidates_;
    for (const McCoreStats &core : mc_.cores)
        holeStatsAccumulate(total, core.holes);
    return total;
}

CoherentSystem::LineState
CoherentSystem::state(unsigned core, std::uint64_t vaddr)
{
    CAC_ASSERT(core < l1s_.size());
    if (!l1s_[core]->probe(vaddr))
        return LineState::Invalid;
    const std::uint64_t pblock =
        l2_->geometry().blockAddr(page_map_.translate(vaddr));
    const DirEntry *entry = dir_.find(pblock);
    if (entry != nullptr && entry->owner == core)
        return LineState::Modified;
    return LineState::Shared;
}

bool
CoherentSystem::checkCoherence() const
{
    const unsigned cores = numCores();
    const bool multi = cores > 1;
    bool ok = multi || (dir_.empty() && attr_.empty());
    // Every reverse-map entry must match a resident L1 line and, with
    // several cores, a set sharer bit; its Modified bit must mirror
    // the directory's owner.
    for (unsigned c = 0; c < cores; ++c) {
        l1_contents_[c].forEach([&](std::uint64_t pblock,
                                    std::uint64_t resident) {
            const std::uint64_t vblock = vblockOf(resident);
            if (!l1s_[c]->probe(l1s_[c]->geometry().byteAddr(vblock)))
                ok = false;
            const DirEntry *entry = multi ? dir_.find(pblock) : nullptr;
            if (multi && (entry == nullptr || !(entry->sharers >> c & 1)))
                ok = false;
            const bool owner = entry != nullptr && entry->owner == c;
            if (((resident & kModifiedBit) != 0) != owner)
                ok = false;
        });
    }
    dir_.forEach([&](std::uint64_t pblock, const DirEntry &entry) {
        // Every sharer bit names a core whose reverse map holds the
        // block (so the mask mirrors the maps exactly).
        if (entry.sharers & ~mask(cores))
            ok = false;
        for (std::uint64_t s = entry.sharers; s != 0; s &= s - 1) {
            const unsigned c = static_cast<unsigned>(std::countr_zero(s));
            if (c < cores && l1_contents_[c].find(pblock) == nullptr)
                ok = false;
        }
        // SWMR: a Modified line is resident in its owner's L1 and in
        // no other core's.
        if (entry.owner != kNoCore
            && (entry.owner >= cores
                || entry.sharers != std::uint64_t{1} << entry.owner)) {
            ok = false;
        }
        if (entry.unused())
            ok = false;
    });
    attr_.forEach([&](std::uint64_t, const Attribution &attr) {
        if (attr.unused())
            ok = false;
    });
    return ok;
}

bool
CoherentSystem::checkInclusion() const
{
    bool ok = true;
    for (unsigned c = 0; c < l1s_.size(); ++c) {
        l1_contents_[c].forEach([&](std::uint64_t pblock,
                                    std::uint64_t resident) {
            const std::uint64_t vaddr =
                l1s_[c]->geometry().byteAddr(vblockOf(resident));
            const std::uint64_t paddr = l2_->geometry().byteAddr(pblock);
            if (l1s_[c]->probe(vaddr) && !l2_->probe(paddr))
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
    for (auto &contents : l1_contents_)
        contents.clear();
    for (auto &holes : holes_)
        holes.clear();
    // Sharing and ownership describe L1 contents and go; the L2 fill
    // attribution survives, as the L2 does.
    dir_.clear();
}

} // namespace cac
