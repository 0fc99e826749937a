/**
 * @file
 * LRU stamp source for one replacement structure (the VCA rename
 * table, physical-register state array and RSID table each own one).
 *
 * Every touch takes the next stamp of the structure's clock. For
 * idle-cycle skipping (DESIGN.md §5) a clock can log instead of stamp:
 * a dry-run rename refusal then leaves every LRU field as it was, and
 * the log later replays the touches in their original order, so the
 * fields end exactly as if each skipped cycle had been ticked.
 */

#ifndef VCA_SIM_LRU_CLOCK_HH
#define VCA_SIM_LRU_CLOCK_HH

#include <array>
#include <cstdint>

#include "sim/logging.hh"

namespace vca {

class LruClock;

/** The ordered LRU touches of one dry-run attempt, across clocks. */
class StampLog
{
  public:
    /** Bound: two sources and a destination take at most three
     *  stamps each (an RSID lookup, a way install, a register touch). */
    static constexpr unsigned capacity = 9;

    void clear() { size_ = 0; }
    unsigned size() const { return size_; }

    void
    add(LruClock *clock, std::uint64_t *lru)
    {
        if (size_ == capacity)
            panic("stamp log overflow (%u touches)", capacity);
        touches_[size_++] = {clock, lru};
    }

    /** The stamped field was reset later in the same attempt (a way
     *  installed and invalidated again): the stamp is still taken, but
     *  nothing keeps it. */
    void
    forget(const std::uint64_t *lru)
    {
        for (unsigned i = 0; i < size_; ++i) {
            if (touches_[i].lru == lru)
                touches_[i].lru = nullptr;
        }
    }

    /** Take `n` repetitions of every logged stamp without writing any:
     *  for cycles whose fields a later replay() overwrites. */
    void skip(std::uint64_t n) const;

    /** Take the logged stamps once more, in order, writing each. */
    void replay() const;

  private:
    struct Touch
    {
        LruClock *clock;
        std::uint64_t *lru; ///< nullptr: stamp taken, nothing written
    };
    std::array<Touch, capacity> touches_{};
    unsigned size_ = 0;
};

class LruClock
{
  public:
    /** Stamp `lru` with the next tick, or log the touch in a dry run. */
    void
    stamp(std::uint64_t &lru)
    {
        if (dryRun_)
            dryRun_->add(this, &lru);
        else
            lru = ++now_;
    }

    /** `lru` is about to be reset; drop its dry-run write, if any. */
    void
    forget(const std::uint64_t &lru)
    {
        if (dryRun_)
            dryRun_->forget(&lru);
    }

    /** The last stamp taken. */
    std::uint64_t now() const { return now_; }

    /** Log touches into `log` instead of stamping (nullptr: stamp). */
    void dryRun(StampLog *log) { dryRun_ = log; }

  private:
    friend class StampLog;

    std::uint64_t now_ = 0;
    StampLog *dryRun_ = nullptr;
};

inline void
StampLog::skip(std::uint64_t n) const
{
    for (unsigned i = 0; i < size_; ++i)
        touches_[i].clock->now_ += n;
}

inline void
StampLog::replay() const
{
    for (unsigned i = 0; i < size_; ++i) {
        const std::uint64_t stamp = ++touches_[i].clock->now_;
        if (touches_[i].lru)
            *touches_[i].lru = stamp;
    }
}

} // namespace vca

#endif // VCA_SIM_LRU_CLOCK_HH
