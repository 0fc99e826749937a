/**
 * @file
 * Calendar event queue for cycle-keyed completion events.
 *
 * The detailed core schedules every completion (FU latency, cache
 * miss, spill/fill transfer) a bounded number of cycles ahead, then
 * pops exactly the events due at the current cycle. A std::map keyed
 * by cycle pays a tree walk plus node allocation per schedule and per
 * pop; this calendar queue indexes a ring of buckets by `cycle &
 * mask`, so both operations are O(1) for any event within the horizon.
 *
 * Events beyond the horizon (longer than the deepest cache-miss plus
 * transfer latency the horizon is sized for) land in a std::map
 * overflow bucket — correctness never depends on the horizon, only
 * speed.
 *
 * Semantics are bit-identical to the `std::map<Cycle, std::vector<T>>`
 * it replaces:
 *  - popAt(c) removes and returns the events scheduled for EXACTLY
 *    cycle c, in schedule() order (a global insertion sequence number
 *    restores order across the bucket/overflow split);
 *  - events scheduled for a cycle that is never popped simply stay
 *    queued (the map behaved the same way: find(now) only matched the
 *    exact key).
 *
 * nextDue(after) answers "when is my next event due?" — the smallest
 * cycle after `after` that popAt() would return events for, matching
 * `when` exactly like popAt does, so stale past entries parked in a
 * ring slot never count. The detailed core uses it to jump over idle
 * cycles (DESIGN.md §5, "Idle-cycle skipping"). A skip can never
 * strand an event: it stops one cycle short of nextDue(), so every
 * cycle that has events is still popped; and the first popAt() after
 * a skip moves the ring base to where the skipped pops would have
 * left it before anything is scheduled again, so every later event
 * lands in the same ring slot or overflow bucket as without the skip.
 */

#ifndef VCA_SIM_EVENT_QUEUE_HH
#define VCA_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "sim/types.hh"

namespace vca {

template <typename T>
class CalendarQueue
{
  public:
    explicit CalendarQueue(Cycle horizon = 256) { reset(horizon); }

    /**
     * (Re)size the ring to cover at least `horizon` cycles ahead of
     * the last popped cycle and drop all queued events.
     */
    void
    reset(Cycle horizon)
    {
        Cycle pow2 = 1;
        while (pow2 < horizon)
            pow2 <<= 1;
        buckets_.assign(static_cast<size_t>(pow2), {});
        mask_ = pow2 - 1;
        overflow_.clear();
        base_ = 0;
        nextSeq_ = 0;
        size_ = 0;
    }

    /** Drop all queued events and rewind to cycle 0, keeping the
     *  ring's storage: the state reset(horizon()) leaves. */
    void
    clear()
    {
        for (auto &bucket : buckets_)
            bucket.clear();
        overflow_.clear();
        base_ = 0;
        nextSeq_ = 0;
        size_ = 0;
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Cycle horizon() const { return mask_ + 1; }

    /** Number of events currently parked beyond the horizon. */
    size_t
    overflowSize() const
    {
        size_t n = 0;
        for (const auto &[when, list] : overflow_)
            n += list.size();
        return n;
    }

    void
    schedule(Cycle when, const T &item)
    {
        Entry e{when, nextSeq_++, item};
        if (when >= base_ && when - base_ < horizon())
            buckets_[when & mask_].push_back(std::move(e));
        else
            overflow_[when].push_back(std::move(e));
        ++size_;
    }

    /**
     * Remove every event scheduled exactly at `when` and append the
     * items to `out` in schedule() order. Advances the ring base, so
     * pop cycles must be monotonically non-decreasing.
     */
    void
    popAt(Cycle when, std::vector<T> &out)
    {
        if (when > base_)
            base_ = when;
        if (size_ == 0)
            return;

        scratch_.clear();
        auto &bucket = buckets_[when & mask_];
        if (!bucket.empty()) {
            // Extract this cycle's entries; keep anything parked in the
            // same slot for a different cycle (only possible for events
            // scheduled in the past and never popped).
            size_t keep = 0;
            for (Entry &e : bucket) {
                if (e.when == when)
                    scratch_.push_back(std::move(e));
                else
                    bucket[keep++] = std::move(e);
            }
            bucket.resize(keep);
        }
        auto it = overflow_.empty() ? overflow_.end()
                                    : overflow_.find(when);
        if (it != overflow_.end()) {
            // Restore global insertion order across the two stores:
            // both lists are seq-sorted, so a single merge suffices.
            const size_t mid = scratch_.size();
            for (Entry &e : it->second)
                scratch_.push_back(std::move(e));
            overflow_.erase(it);
            std::inplace_merge(scratch_.begin(), scratch_.begin() + mid,
                               scratch_.end(),
                               [](const Entry &a, const Entry &b) {
                                   return a.seq < b.seq;
                               });
        }
        size_ -= scratch_.size();
        for (Entry &e : scratch_)
            out.push_back(std::move(e.item));
    }

    /**
     * The earliest cycle after `after` at which popAt() would return
     * events, or neverCycle when none is queued. `after` must be at or
     * past the last popped cycle. Cost: one bucket test per cycle up
     * to the answer, at most one horizon.
     */
    Cycle
    nextDue(Cycle after) const
    {
        if (size_ == 0)
            return neverCycle;
        Cycle due = neverCycle;
        const auto it = overflow_.upper_bound(after);
        if (it != overflow_.end())
            due = it->first;
        // Every ring entry was scheduled below (base at the time) +
        // horizon, and the base only grows, so the scan can stop at
        // base_ + horizon().
        const Cycle end = std::min(due, base_ + horizon());
        for (Cycle c = after + 1; c < end; ++c) {
            for (const Entry &e : buckets_[c & mask_]) {
                if (e.when == c)
                    return c;
            }
        }
        return due;
    }

  private:
    struct Entry
    {
        Cycle when;
        std::uint64_t seq;
        T item;
    };

    std::vector<std::vector<Entry>> buckets_;
    Cycle mask_ = 0;
    Cycle base_ = 0; ///< last popped cycle; ring covers [base_, base_+N)
    std::map<Cycle, std::vector<Entry>> overflow_;
    std::vector<Entry> scratch_;
    std::uint64_t nextSeq_ = 0;
    size_t size_ = 0;
};

} // namespace vca

#endif // VCA_SIM_EVENT_QUEUE_HH
