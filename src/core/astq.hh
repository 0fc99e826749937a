/**
 * @file
 * Architectural state transfer queue (paper §2.2.2).
 *
 * A small FIFO holding spill and fill operations. Spills and fills
 * bypass the instruction queue and load/store queue: they need no
 * effective-address calculation, no memory disambiguation against
 * program loads/stores, and no data dependences on regular
 * instructions. Entries issue to data-cache ports left free by program
 * memory operations. At most writesPerCycle operations may be inserted
 * per cycle (Table 1: two), and the queue holds `entries` operations
 * (Table 1: four); rename stalls when either limit is hit.
 */

#ifndef VCA_CORE_ASTQ_HH
#define VCA_CORE_ASTQ_HH

#include <deque>

#include "cpu/renamer.hh"
#include "sim/types.hh"
#include "stats/statistics.hh"

namespace vca::core {

class Astq : public stats::StatGroup
{
  public:
    Astq(unsigned entries, unsigned writesPerCycle,
         stats::StatGroup *parent)
        : stats::StatGroup("astq", parent),
          spillsEnqueued(this, "spills", "spill operations enqueued"),
          fillsEnqueued(this, "fills", "fill operations enqueued"),
          fullStalls(this, "full_stalls",
                     "enqueue attempts rejected: queue full"),
          writeLimitStalls(this, "write_limit_stalls",
                           "enqueue attempts rejected: per-cycle limit"),
          occupancy(this, "occupancy", "queue occupancy when issuing",
                    0, entries + 1, entries + 1),
          entries_(entries), writesPerCycle_(writesPerCycle)
    {
    }

    void beginCycle() { writesThisCycle_ = 0; }

    /** Drop every queued transfer, as constructed (statistics are the
     *  owner's to reset). */
    void
    clear()
    {
        queue_.clear();
        writesThisCycle_ = 0;
    }

    /** Can `n` more operations be enqueued this cycle? */
    bool
    canEnqueue(unsigned n) const
    {
        return queue_.size() + n <= entries_ &&
               writesThisCycle_ + n <= writesPerCycle_;
    }

    /** Record why an enqueue could not happen (stat bookkeeping). */
    void
    noteRejected(unsigned n)
    {
        if (queue_.size() + n > entries_)
            ++fullStalls;
        else
            ++writeLimitStalls;
    }

    void
    enqueue(const cpu::TransferOp &op)
    {
        if (!canEnqueue(1))
            panic("ASTQ enqueue past limits");
        queue_.push_back(op);
        ++writesThisCycle_;
        if (op.isStore)
            ++spillsEnqueued;
        else
            ++fillsEnqueued;
    }

    /**
     * Enqueue bypassing the capacity and per-cycle limits. Used only
     * for RSID-replacement flushes (rare, and architecturally a
     * multi-cycle hardware sequence); the ops still drain through
     * data-cache ports at the normal rate.
     */
    void
    enqueueForce(const cpu::TransferOp &op)
    {
        queue_.push_back(op);
        if (op.isStore)
            ++spillsEnqueued;
        else
            ++fillsEnqueued;
    }

    bool empty() const { return queue_.empty(); }
    size_t size() const { return queue_.size(); }

    cpu::TransferOp
    pop()
    {
        if (queue_.empty())
            panic("ASTQ pop on empty queue");
        occupancy.sample(static_cast<double>(queue_.size()));
        cpu::TransferOp op = queue_.front();
        queue_.pop_front();
        return op;
    }

    stats::Scalar spillsEnqueued;
    stats::Scalar fillsEnqueued;
    stats::Scalar fullStalls;
    stats::Scalar writeLimitStalls;
    stats::Distribution occupancy;

  private:
    std::deque<cpu::TransferOp> queue_;
    unsigned entries_;
    unsigned writesPerCycle_;
    unsigned writesThisCycle_ = 0;
};

} // namespace vca::core

#endif // VCA_CORE_ASTQ_HH
