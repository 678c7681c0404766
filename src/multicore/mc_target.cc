#include "multicore/mc_target.hh"

#include "common/logging.hh"

namespace cac
{

MultiCoreTarget::MultiCoreTarget(std::string name,
                                 std::unique_ptr<CoherentSystem> system,
                                 TargetKind kind)
    : name_(std::move(name)), system_(std::move(system)), kind_(kind)
{
    CAC_ASSERT(system_);
    CAC_ASSERT(kind_ == TargetKind::MultiCore
               || (kind_ == TargetKind::Hierarchy
                   && system_->numCores() == 1));
}

void
MultiCoreTarget::accessBatch(const std::uint64_t *addrs, std::size_t n,
                             bool is_write)
{
    gather_.flush(*system_);
    system_->accessBatch(addrs, n, is_write);
}

void
MultiCoreTarget::replay(const TraceRecord *recs, std::size_t n)
{
    gather_.replay(*system_, recs, n);
}

void
MultiCoreTarget::finish()
{
    gather_.flush(*system_);
}

void
MultiCoreTarget::checkpoint()
{
    gather_.flush(*system_);
}

void
MultiCoreTarget::flushPrimary()
{
    gather_.flush(*system_);
    system_->flushL1s();
}

TargetStats
MultiCoreTarget::stats() const
{
    TargetStats out;
    out.kind = kind_;
    out.l1 = system_->aggregateL1();
    out.hasHierarchy = true;
    out.l2 = system_->l2().stats();
    out.holes = system_->aggregateHoles();
    if (kind_ == TargetKind::MultiCore) {
        out.hasMultiCore = true;
        out.mc = system_->stats();
    }
    return out;
}

} // namespace cac
