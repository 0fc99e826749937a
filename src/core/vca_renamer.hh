/**
 * @file
 * The Virtual Context Architecture renamer (paper Section 2).
 *
 * Renaming is a two-stage process: (1) each architectural register
 * index is combined with the thread's context base pointer(s) to form
 * a logical-register memory address; (2) the address is looked up in a
 * tagged set-associative rename table backed by the RSID translation
 * table. Source misses allocate a physical register and enqueue a fill
 * through the ASTQ; replacement of dirty committed registers enqueues
 * spills. The physical register file acts as a cache of the
 * memory-mapped logical register space.
 *
 * Per-thread state is only the two base pointers (windowed + global);
 * a call or return changes context by moving the windowed base pointer
 * one frame, with no table flush (Sections 2.1.4-2.1.5).
 *
 * With `ideal` set, the same renamer models the paper's idealized
 * register-window machine: spills and fills are instantaneous and free
 * (no ASTQ, no cache traffic, no table-capacity or port limits, no
 * extra rename stage) - a lower bound for any windowed implementation.
 */

#ifndef VCA_CORE_VCA_RENAMER_HH
#define VCA_CORE_VCA_RENAMER_HH

#include <array>
#include <vector>

#include "core/astq.hh"
#include "core/reg_cache_probe.hh"
#include "core/rename_table.hh"
#include "core/rsid_table.hh"
#include "core/reg_state.hh"
#include "cpu/params.hh"
#include "cpu/phys_regfile.hh"
#include "cpu/renamer.hh"
#include "stats/statistics.hh"

namespace vca::core {

class VcaRenamer : public cpu::Renamer
{
  public:
    VcaRenamer(const cpu::CpuParams &params, cpu::PhysRegFile &regs,
               std::vector<mem::SparseMemory *> memories, bool ideal,
               stats::StatGroup *parent);

    void setThreadContext(ThreadId tid, bool windowedAbi) override;
    void beginCycle(Cycle now) override;
    bool rename(cpu::DynInst &inst, Cycle now) override;
    bool dryRunRefusal(cpu::DynInst &inst,
                       cpu::RefusalEffects &fx) override;
    cpu::CommitAction commitInst(cpu::DynInst &inst) override;
    void squashInst(cpu::DynInst &inst) override;
    unsigned recoveryCycles(unsigned instsBeforeBranch) const override;
    unsigned extraFrontendCycles() const override;

    bool hasTransferOp() const override { return !ideal_ && !astq_.empty(); }
    cpu::TransferOp popTransferOp() override;
    void transferDone(const cpu::TransferOp &op) override;
    StallCause lastStallCause() const override { return lastStall_; }

    void validate() const override;

    void drain() override;
    void switchIn(ThreadId tid, const func::ArchState &state) override;
    std::uint64_t readArchReg(ThreadId tid, isa::RegClass cls,
                              RegIndex idx) override;
    Addr relocateRegSpace(ThreadId tid, Addr addr) const override;

    /** Logical-register memory address for a register of a thread. */
    Addr regAddress(ThreadId tid, isa::RegClass cls, RegIndex idx) const;

    /** Current windowed base pointer (tests). */
    Addr windowBase(ThreadId tid) const { return threads_.at(tid).wbp; }

    const RenameTable &table() const { return table_; }
    const RegStateArray &regState() const { return regState_; }
    const RsidTable &rsid() const { return rsid_; }
    const cpu::CpuParams &params() const { return params_; }
    bool ideal() const { return ideal_; }

    /**
     * Attach (or detach, with nullptr) a telemetry probe observing the
     * register-cache access stream. Not owned. Detached, the cost is
     * one predictable branch per observed event.
     */
    void attachProbe(RegCacheProbe *probe) { probe_ = probe; }

    // An attached probe samples occupancy in beginCycle().
    bool
    observesEveryCycle() const override
    {
        return probe_ != nullptr;
    }

    // Statistics.
    stats::Scalar fills;
    stats::Scalar spills;
    stats::Scalar tableMisses;
    stats::Scalar tableHits;
    stats::Scalar stallsNoFreeReg;
    stats::Scalar stallsTableConflict;
    stats::Scalar stallsPorts;
    stats::Scalar stallsAstq;
    stats::Scalar stallsRsid;
    stats::Scalar overwriteFrees; ///< registers freed without spill
    stats::Scalar deadValueHints; ///< frame registers marked dead (ext.)

  private:
    struct ThreadCtx
    {
        bool windowedAbi = false;
        Addr gbp = 0; ///< global (non-windowed) base pointer
        Addr wbp = 0; ///< windowed base pointer (speculative)
    };

    /**
     * Ensure addr has a table entry; may evict another entry (spilling
     * its dirty committed register). Returns nullptr on stall.
     */
    TableEntry *getEntry(Addr addr, bool &stalled);

    /** Allocate a physical register (free list or replacement). */
    PhysRegIndex allocPhys(bool &stalled);

    /** Spill a committed dirty register (value captured now). */
    bool enqueueSpill(PhysRegIndex reg);

    /** Free a physical register (must be unpinned). */
    void freePhys(PhysRegIndex reg);

    /**
     * In a dry run (dryRunRefusal), true at a step that a refusal
     * could not undo, or that decides on success: the attempt stops
     * there as impure, undoing what it did like a refusal.
     */
    bool stopsDryRun();

    /** RSID reference counting (no-ops in ideal mode). */
    void addEntryRsidRef(const TableEntry *entry);
    void dropEntryRsidRef(const TableEntry *entry);

    /** Flush every register tagged with an RSID; false if any pinned. */
    bool flushRsid(int rsid);

    /** Dead-value extension: kill the departing frame's cached values. */
    void applyDeadFrameHint(Addr frameBase);

    mem::SparseMemory &memoryFor(Addr addr, ThreadId tid);

    const cpu::CpuParams &params_;
    cpu::PhysRegFile &regs_;
    std::vector<mem::SparseMemory *> memories_;
    bool ideal_;

    RenameTable table_;
    RsidTable rsid_;
    Astq astq_;
    RegStateArray regState_;
    std::vector<ThreadCtx> threads_;

    // Per-cycle rename-port accounting (reads of the same address are
    // combined and use a single port, Section 3).
    std::vector<Addr> cycleReadAddrs_;
    unsigned portsUsed_ = 0;

    // Stall-taxonomy breadcrumb: updated wherever a stall counter
    // increments (ASTQ sites are transfer backpressure, the rest are
    // free-list-class pressure); read by the pipeline on refusal.
    StallCause lastStall_ = StallCause::FreeList;

    RegCacheProbe *probe_ = nullptr;

    enum class DryRun : std::uint8_t { Off, Pure, Impure };
    DryRun dryRun_ = DryRun::Off;

    /** Every counter a pure refusal can bump; a dry run restores them
     *  and records the differences. */
    static constexpr size_t numRefusalCounters = 10;
    std::array<stats::Scalar *, numRefusalCounters> refusalCounters_;
};

} // namespace vca::core

#endif // VCA_CORE_VCA_RENAMER_HH
