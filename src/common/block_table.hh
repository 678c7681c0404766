/**
 * @file
 * BlockTable: a flat open-addressing map keyed by 64-bit block or page
 * numbers, for the bookkeeping on the virtual-real miss path (the page
 * table and its inverse, pending holes, the blocks other cores evicted
 * from the L2) and the fully-associative cache's block -> slot map.
 *
 * Linear probing over one power-of-two slot array with a Fibonacci
 * (multiplicative) hash, so clustered sequential block numbers spread
 * evenly. Deletion shifts the following run back instead of leaving
 * tombstones, so probe lengths never degrade under the insert/erase
 * churn of a cache simulation. The table allocates nothing until the
 * first insert and doubles at 3/4 load.
 *
 * reserve() sizes an empty table from the structure it mirrors (a
 * fully-associative cache maps at most one entry per line) at 1/8 load. Linear
 * probing's expected run grows steeply with load (an unreserved table
 * sits between 3/8 and 3/4): on page-clustered block numbers an
 * erase+insert pair costs about 25 ns at 1/2 load, 45 ns at 3/4 and
 * 7 ns at 1/8, and a find of an absent key (the common case for the
 * holes set) 8-11 ns against 2 ns (docs/PERF_LOG.md has the host). At
 * 1/8 nearly every probe ends in its home slot. A reserved table that
 * outgrows its reservation still doubles at 3/4 load; the reservation
 * only sets where it starts.
 *
 * Key ~0 is reserved as the empty-slot marker. Block and page numbers
 * are shifted addresses and never reach it; TraceBuilder's call-site
 * keys can, so it keeps that one key beside its table.
 */

#ifndef CAC_COMMON_BLOCK_TABLE_HH
#define CAC_COMMON_BLOCK_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/bits.hh"
#include "common/logging.hh"

namespace cac
{

/** Flat map from a 64-bit block number to a small value. */
template <typename V>
class BlockTable
{
  public:
    /** The reserved key marking an empty slot. */
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /**
     * Give an empty table the smallest power-of-two slot array of at
     * least 8 * @p n slots (and at least 16), so @p n entries sit at
     * 1/8 load or less.
     */
    void reserve(std::size_t n)
    {
        CAC_ASSERT(size_ == 0);
        std::size_t capacity = 16;
        while (capacity < 8 * n)
            capacity *= 2;
        allocate(capacity);
    }

    /** The value stored under @p key, or nullptr. */
    V *find(std::uint64_t key)
    {
        if (size_ == 0)
            return nullptr;
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            if (slots_[i].key == kEmptyKey)
                return nullptr;
            if (slots_[i].key == key)
                return &slots_[i].value;
        }
    }

    const V *find(std::uint64_t key) const
    {
        return const_cast<BlockTable *>(this)->find(key);
    }

    /**
     * The value under @p key, value-initialized first if absent, and
     * whether it was absent (std::unordered_map::try_emplace). The
     * reference stays valid until the next insert or erase.
     */
    std::pair<V &, bool> insert(std::uint64_t key)
    {
        CAC_ASSERT(key != kEmptyKey);
        if (4 * (size_ + 1) > 3 * slots_.size())
            grow();
        std::size_t i = home(key);
        for (; slots_[i].key != kEmptyKey; i = (i + 1) & mask_) {
            if (slots_[i].key == key)
                return {slots_[i].value, false};
        }
        slots_[i].key = key;
        slots_[i].value = V{};
        ++size_;
        return {slots_[i].value, true};
    }

    /** Remove @p key; true when it was present. */
    bool erase(std::uint64_t key)
    {
        if (size_ == 0)
            return false;
        std::size_t hole = home(key);
        for (;; hole = (hole + 1) & mask_) {
            if (slots_[hole].key == kEmptyKey)
                return false;
            if (slots_[hole].key == key)
                break;
        }
        // Backward shift: pull each later member of the probe run into
        // the hole unless that would move it before its home slot.
        for (std::size_t j = (hole + 1) & mask_;
             slots_[j].key != kEmptyKey; j = (j + 1) & mask_) {
            const std::size_t dist_home = (j - home(slots_[j].key)) & mask_;
            if (dist_home >= ((j - hole) & mask_)) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
        }
        slots_[hole].key = kEmptyKey;
        --size_;
        return true;
    }

    /** Remove every entry; the slot array is kept for reuse. */
    void clear()
    {
        if (size_ == 0)
            return;
        for (Slot &s : slots_)
            s.key = kEmptyKey;
        size_ = 0;
    }

    /** Visit every (key, value) pair in slot order. */
    template <typename F>
    void forEach(F &&f) const
    {
        for (const Slot &s : slots_) {
            if (s.key != kEmptyKey)
                f(s.key, s.value);
        }
    }

  private:
    struct Slot
    {
        std::uint64_t key = kEmptyKey;
        [[no_unique_address]] V value{};
    };

    std::size_t home(std::uint64_t key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> shift_);
    }

    /** Replace the slot array with @p capacity empty slots. */
    void allocate(std::size_t capacity)
    {
        slots_.assign(capacity, Slot{});
        mask_ = capacity - 1;
        shift_ = 64 - floorLog2(capacity);
    }

    void grow()
    {
        std::vector<Slot> old = std::move(slots_);
        allocate(old.empty() ? 16 : 2 * old.size());
        for (Slot &s : old) {
            if (s.key == kEmptyKey)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].key != kEmptyKey)
                i = (i + 1) & mask_;
            slots_[i] = std::move(s);
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
};

/** Value type of a BlockTable used as a set (takes no slot space). */
struct NoValue
{
};

/** Flat set of 64-bit block numbers. */
using BlockSet = BlockTable<NoValue>;

} // namespace cac

#endif // CAC_COMMON_BLOCK_TABLE_HH
