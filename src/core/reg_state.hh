/**
 * @file
 * VCA physical-register state (paper §2.1.2, Figure 2).
 *
 * Each physical register carries: the logical-register memory address
 * it caches (if any), a reference count (pinning), the committed and
 * dirty bits, an in-flight-overwriter count (registers about to be
 * overwritten get lowest replacement priority), an LRU stamp, and a
 * fill-pending marker. A register is *free* exactly when it has no
 * logical address.
 */

#ifndef VCA_CORE_REG_STATE_HH
#define VCA_CORE_REG_STATE_HH

#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/lru_clock.hh"
#include "sim/types.hh"

namespace vca::core {

struct PhysState
{
    Addr addr = invalidAddr;   ///< logical address; invalidAddr = free
    std::uint32_t refCount = 0;
    std::uint32_t overwriters = 0;
    bool committed = false;
    bool dirty = false;
    bool fillPending = false;
    /**
     * Overwritten while an orphaned fill (its consumers were squashed)
     * is still in flight: the register is detached from the table and
     * freed when the fill completes.
     */
    bool zombie = false;
    std::uint64_t lru = 0;

    bool free() const { return addr == invalidAddr; }
    bool pinned() const { return refCount > 0; }

    /** Eligible to be reallocated to a different logical register. */
    bool
    evictable() const
    {
        return !free() && !pinned() && committed && !fillPending;
    }

    void
    clear()
    {
        *this = PhysState{};
    }
};

/**
 * The full register-state array plus the free list and an exact-LRU
 * victim scanner.
 *
 * Writes go through edit(), whose guard re-classifies the register
 * when it ends: the array keeps the set of evictable registers and a
 * count of the clean ones, so findVictim() answers "no victim" (the
 * common case under register pressure) without scanning, and
 * otherwise scans only the evictable registers.
 */
class RegStateArray
{
  public:
    /** Write access to one register for the guard's lifetime. */
    class Edit
    {
      public:
        Edit(RegStateArray &array, size_t index)
            : array_(array), index_(index)
        {
        }
        ~Edit() { array_.reclassify(index_); }
        Edit(const Edit &) = delete;
        Edit &operator=(const Edit &) = delete;

        PhysState *operator->() const { return &array_.state_[index_]; }
        PhysState &operator*() const { return array_.state_[index_]; }

      private:
        RegStateArray &array_;
        size_t index_;
    };

    explicit RegStateArray(unsigned numRegs)
        : state_(numRegs), class_(numRegs, 0), evictablePos_(numRegs, 0)
    {
        evictable_.reserve(numRegs);
        for (unsigned p = 0; p < numRegs; ++p)
            freeList_.push_back(static_cast<PhysRegIndex>(p));
    }

    const PhysState &
    operator[](PhysRegIndex p) const
    {
        return state_[check(p)];
    }

    Edit edit(PhysRegIndex p) { return Edit(*this, check(p)); }

    unsigned numRegs() const { return state_.size(); }
    bool hasFree() const { return !freeList_.empty(); }
    unsigned numFree() const { return freeList_.size(); }

    /** Registers findVictim(false) / findVictim(true) may return. */
    unsigned numEvictable() const { return evictable_.size(); }
    unsigned numCleanEvictable() const { return numCleanEvictable_; }

    /** First register whose counted class disagrees with its state
     *  (a write that bypassed edit()), or invalidPhysReg. */
    PhysRegIndex
    misclassified() const
    {
        for (size_t i = 0; i < state_.size(); ++i) {
            if (class_[i] != victimClass(state_[i]))
                return static_cast<PhysRegIndex>(i);
        }
        return invalidPhysReg;
    }

    PhysRegIndex
    popFree()
    {
        if (freeList_.empty())
            panic("popFree on empty free list");
        PhysRegIndex p = freeList_.back();
        freeList_.pop_back();
        return p;
    }

    void
    pushFree(PhysRegIndex p)
    {
        const size_t i = check(p);
        state_[i].clear();
        reclassify(i);
        freeList_.push_back(p);
    }

    void touch(PhysRegIndex p) { clock_.stamp(state_[check(p)].lru); }

    LruClock &clock() { return clock_; }
    const LruClock &clock() const { return clock_; }

    /**
     * Pick the least recently used evictable register. Registers with
     * a dispatched overwriting instruction are skipped in the first
     * pass ("lowest priority for replacement", §2.1.2); if
     * requireClean is set, dirty registers are also skipped (used
     * when no spill can be enqueued this cycle).
     *
     * @return invalidPhysReg if no eligible victim exists
     */
    PhysRegIndex
    findVictim(bool requireClean) const
    {
        if (requireClean ? numCleanEvictable_ == 0 : evictable_.empty())
            return invalidPhysReg;
        PhysRegIndex best = invalidPhysReg;
        PhysRegIndex fallback = invalidPhysReg;
        // Exact LRU over the evictable registers: the replacement
        // quality directly sets the fill rate, which Figures 5 and 7
        // are sensitive to. Equal stamps (dead-value hints zero them)
        // go to the lowest index.
        const auto older = [&](PhysRegIndex a, PhysRegIndex b) {
            return b == invalidPhysReg || state_[a].lru < state_[b].lru ||
                   (state_[a].lru == state_[b].lru && a < b);
        };
        for (PhysRegIndex p : evictable_) {
            const PhysState &s = state_[p];
            if (requireClean && s.dirty)
                continue;
            PhysRegIndex &slot = s.overwriters == 0 ? best : fallback;
            if (older(p, slot))
                slot = p;
        }
        return best != invalidPhysReg ? best : fallback;
    }

    /** All registers whose address maps through the given predicate. */
    template <typename Pred>
    std::vector<PhysRegIndex>
    collect(Pred pred) const
    {
        std::vector<PhysRegIndex> out;
        for (unsigned i = 0; i < state_.size(); ++i) {
            if (!state_[i].free() && pred(state_[i]))
                out.push_back(static_cast<PhysRegIndex>(i));
        }
        return out;
    }

  private:
    static constexpr std::uint8_t evictableBit = 1;
    static constexpr std::uint8_t cleanBit = 2;

    static std::uint8_t
    victimClass(const PhysState &s)
    {
        if (!s.evictable())
            return 0;
        return s.dirty ? evictableBit : evictableBit | cleanBit;
    }

    void
    reclassify(size_t i)
    {
        const std::uint8_t now = victimClass(state_[i]);
        const std::uint8_t was = class_[i];
        if (now == was)
            return;
        class_[i] = now;
        numCleanEvictable_ += (now & cleanBit) != 0;
        numCleanEvictable_ -= (was & cleanBit) != 0;
        if ((now ^ was) & evictableBit) {
            if (now & evictableBit) {
                evictablePos_[i] = evictable_.size();
                evictable_.push_back(static_cast<PhysRegIndex>(i));
            } else {
                // Swap-remove: the set's order does not matter.
                const PhysRegIndex last = evictable_.back();
                evictable_[evictablePos_[i]] = last;
                evictablePos_[last] = evictablePos_[i];
                evictable_.pop_back();
            }
        }
    }

    size_t
    check(PhysRegIndex p) const
    {
        if (p < 0 || static_cast<size_t>(p) >= state_.size())
            panic("invalid physical register index");
        return static_cast<size_t>(p);
    }

    std::vector<PhysState> state_;
    std::vector<std::uint8_t> class_; ///< victimClass() when last edited
    std::vector<PhysRegIndex> freeList_;
    std::vector<PhysRegIndex> evictable_;  ///< class_ has evictableBit
    std::vector<unsigned> evictablePos_;   ///< index into evictable_
    unsigned numCleanEvictable_ = 0;
    LruClock clock_;
};

} // namespace vca::core

#endif // VCA_CORE_REG_STATE_HH
