#include "trace/builder.hh"

#include <algorithm>
#include <functional>
#include <string_view>

namespace cac
{

void
TraceBuilder::rehashFile(const char *file)
{
    file_ = file;
    file_hash_ = std::hash<std::string_view>{}(file);
}

std::uint32_t
TraceBuilder::firstSighting(std::uint64_t key)
{
    // Dense PCs spaced 4 bytes apart, like real instruction addresses.
    const auto pc = static_cast<std::uint32_t>(staticInstructions() * 4);
    if (key == BlockTable<std::uint32_t>::kEmptyKey) {
        if (!reserved_key_pc_)
            reserved_key_pc_ = pc;
        return *reserved_key_pc_;
    }
    pcs_.insert(key).first = pc;
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
