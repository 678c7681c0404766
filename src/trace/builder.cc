#include "trace/builder.hh"

#include <algorithm>
#include <functional>
#include <string_view>

namespace cac
{

std::uint32_t
TraceBuilder::pcFor(const std::source_location &loc, unsigned salt)
{
    // Hash the call site; column included so two emits on one line get
    // distinct PCs, salt so loops over arrays get one PC per array.
    const std::uint64_t key =
        std::hash<std::string_view>{}(loc.file_name())
        ^ (static_cast<std::uint64_t>(loc.line()) << 20)
        ^ (static_cast<std::uint64_t>(loc.column()) << 8)
        ^ (static_cast<std::uint64_t>(salt) << 40);
    auto it = pc_map_.find(key);
    if (it != pc_map_.end())
        return it->second;
    // Dense PCs spaced 4 bytes apart, like real instruction addresses.
    const auto pc = static_cast<std::uint32_t>(pc_map_.size() * 4);
    pc_map_.emplace(key, pc);
    return pc;
}

void
relocateTrace(std::span<TraceRecord> trace, std::uint64_t addr_offset,
              std::uint32_t pc_offset)
{
    for (TraceRecord &rec : trace) {
        if (isMemOp(rec.op))
            rec.addr += addr_offset;
        rec.pc += pc_offset;
    }
}

void
rotateTrace(std::span<TraceRecord> trace, std::size_t records)
{
    if (trace.empty())
        return;
    records %= trace.size();
    if (records == 0)
        return;
    std::rotate(trace.begin(),
                trace.begin() + static_cast<std::ptrdiff_t>(records),
                trace.end());
}

} // namespace cac
