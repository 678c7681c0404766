#include "hierarchy/two_level.hh"

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
    &HoleStats::holeRefills,
    &HoleStats::externalInvalidates,
    &HoleStats::aliasRemovals};

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

TwoLevelHierarchy::TwoLevelHierarchy(std::unique_ptr<CacheModel> l1,
                                     std::unique_ptr<CacheModel> l2,
                                     PageMap page_map)
    : l1_(std::move(l1)), l2_(std::move(l2)), page_map_(std::move(page_map))
{
    CAC_ASSERT(l1_ && l2_);
    if (l1_->geometry().blockBytes() != l2_->geometry().blockBytes())
        fatal("L1 and L2 must share a block size in this hierarchy");
    if (page_map_.pageBytes() < l1_->geometry().blockBytes())
        fatal("page size smaller than the cache block size");
    l1_sa_ = dynamic_cast<SetAssocCache *>(l1_.get());
}

bool
TwoLevelHierarchy::access(std::uint64_t vaddr, bool is_write)
{
    AccessResult l1_result = l1_->access(vaddr, is_write);
    if (l1_result.hit)
        return true;
    missPath(vaddr, is_write, l1_result);
    return false;
}

void
TwoLevelHierarchy::accessBatch(const std::uint64_t *vaddrs, std::size_t n,
                               bool is_write)
{
    if (l1_sa_ == nullptr || !l1_sa_->indexPlan().packedCapable()) {
        for (std::size_t i = 0; i < n; ++i)
            access(vaddrs[i], is_write);
        return;
    }
    // L1 hits — the overwhelming majority — cost one precomputed-index
    // lookup; only misses enter the translation + Inclusion path.
    const IndexPlan &plan = l1_sa_->indexPlan();
    constexpr std::size_t kTile = 256;
    std::uint64_t blocks[kTile];
    std::uint64_t packed[kTile];
    for (std::size_t base = 0; base < n; base += kTile) {
        const std::size_t m = n - base < kTile ? n - base : kTile;
        for (std::size_t i = 0; i < m; ++i)
            blocks[i] = l1_->geometry().blockAddr(vaddrs[base + i]);
        plan.indexPackedBatch(blocks, m, packed);
        for (std::size_t i = 0; i < m; ++i) {
            const AccessResult r =
                l1_sa_->accessPacked(blocks[i], packed[i], is_write);
            if (!r.hit)
                missPath(vaddrs[base + i], is_write, r);
        }
    }
}

void
TwoLevelHierarchy::missPath(std::uint64_t vaddr, bool is_write,
                            const AccessResult &l1_result)
{
    const std::uint64_t vblock = l1_->geometry().blockAddr(vaddr);

    ++hole_stats_.l1Misses;
    if (holes_.erase(vblock))
        ++hole_stats_.holeRefills;

    // Bookkeeping for the L1 fill and its eviction. Translation after
    // the L1 access mirrors the virtual-real pipeline: L1 is probed
    // before (or in parallel with) the TLB.
    const std::uint64_t paddr = page_map_.translate(vaddr);
    const std::uint64_t pblock = l2_->geometry().blockAddr(paddr);

    std::uint64_t l1_evicted_vblock = 0;
    bool l1_evicted = false;
    if (l1_result.evictedAddr) {
        l1_evicted = true;
        l1_evicted_vblock = l1_->geometry().blockAddr(*l1_result.evictedAddr);
        const std::uint64_t evicted_pblock = l2_->geometry().blockAddr(
            page_map_.translate(*l1_result.evictedAddr));
        l1_contents_.erase(evicted_pblock);
        // A dirty write-back from L1 updates L2 (hit expected under
        // Inclusion).
        if (l1_result.evictedDirty)
            l2_->access(page_map_.translate(*l1_result.evictedAddr), true);
    }
    if (l1_result.filled) {
        // Virtual-alias rule: at most one virtual copy of a physical
        // block may live in L1 (section 3.3, cause 2 of holes). If a
        // different virtual block already maps this physical block,
        // shoot it down before recording the new mapping.
        auto [resident, fresh] = l1_contents_.insert(pblock);
        if (!fresh && resident != vblock) {
            if (l1_->invalidate(l1_->geometry().byteAddr(resident)))
                ++hole_stats_.aliasRemovals;
        }
        resident = vblock;
    }

    // L2 lookup with the physical address.
    AccessResult l2_result = l2_->access(paddr, is_write);
    if (l2_result.hit)
        return;

    ++hole_stats_.l2Misses;
    if (l2_result.evictedAddr) {
        ++hole_stats_.l2Replacements;
        const std::uint64_t victim_pblock =
            l2_->geometry().blockAddr(*l2_result.evictedAddr);
        if (const std::uint64_t *resident =
                l1_contents_.find(victim_pblock)) {
            // Inclusion demands this data leave L1.
            ++hole_stats_.inclusionInvalidates;
            const std::uint64_t victim_vblock = *resident;
            if (l1_evicted && victim_vblock == l1_evicted_vblock) {
                // Coincidence: the L1 fill already displaced it; no
                // hole appears (the paper's P_d complement).
            } else {
                const std::uint64_t victim_vaddr =
                    l1_->geometry().byteAddr(victim_vblock);
                if (l1_->invalidate(victim_vaddr)) {
                    ++hole_stats_.holesCreated;
                    holes_.insert(victim_vblock);
                }
            }
            l1_contents_.erase(victim_pblock);
        }
    }
}

void
TwoLevelHierarchy::externalInvalidate(std::uint64_t paddr)
{
    ++hole_stats_.externalInvalidates;
    l2_->invalidate(paddr);
    const std::uint64_t pblock = l2_->geometry().blockAddr(paddr);
    if (const std::uint64_t *resident = l1_contents_.find(pblock)) {
        l1_->invalidate(l1_->geometry().byteAddr(*resident));
        l1_contents_.erase(pblock);
    }
}

void
TwoLevelHierarchy::flushL1()
{
    l1_->flush();
    l1_contents_.clear();
    holes_.clear();
}

bool
TwoLevelHierarchy::checkInclusion() const
{
    bool ok = true;
    l1_contents_.forEach([&](std::uint64_t pblock, std::uint64_t vblock) {
        const std::uint64_t vaddr = l1_->geometry().byteAddr(vblock);
        const std::uint64_t paddr = l2_->geometry().byteAddr(pblock);
        if (l1_->probe(vaddr) && !l2_->probe(paddr))
            ok = false;
    });
    return ok;
}

} // namespace cac
