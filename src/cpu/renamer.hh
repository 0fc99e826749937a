/**
 * @file
 * The renamer abstraction the out-of-order core is built against.
 *
 * All four architectures the paper compares (baseline, conventional
 * register windows, idealized windows, VCA) differ *only* in register
 * management, which mirrors the paper's claim that VCA has "minimal
 * impact outside of the rename stage" (Section 2.1). The pipeline asks
 * the renamer to map instructions, notifies it of commits and
 * squashes, and services its architectural-state transfer operations
 * (VCA spills/fills, conventional-window trap saves/restores) through
 * spare data-cache ports.
 */

#ifndef VCA_CPU_RENAMER_HH
#define VCA_CPU_RENAMER_HH

#include <array>
#include <cstdint>

#include "cpu/dyn_inst.hh"
#include "func/func_sim.hh"
#include "mem/sparse_memory.hh"
#include "sim/logging.hh"
#include "sim/lru_clock.hh"
#include "sim/types.hh"
#include "stats/statistics.hh"

namespace vca::cpu {

/** One architectural-state transfer memory operation. */
struct TransferOp
{
    bool isStore = false;              ///< spill/save vs fill/restore
    Addr addr = invalidAddr;           ///< memory address accessed
    PhysRegIndex reg = invalidPhysReg; ///< fill target (VCA fills only)
    ThreadId tid = 0;
};

/** What the pipeline must do after committing an instruction. */
struct CommitAction
{
    bool windowTrap = false; ///< flush younger, stall, run performTrap()
    unsigned stallCycles = 0;
};

/**
 * What one replayable rename refusal changes (idle-cycle skipping,
 * DESIGN.md §5): the counters it bumps and the LRU stamps it takes, in
 * order. Renamer::dryRunRefusal() fills it without changing either;
 * the skipper applies it once per skipped cycle.
 */
class RefusalEffects
{
  public:
    void
    clear()
    {
        numCounts_ = 0;
        stamps.clear();
    }

    /** The refusal adds `n` to `stat`. */
    void
    count(stats::Scalar &stat, double n = 1)
    {
        if (numCounts_ == counts_.size())
            panic("refusal counts overflow");
        counts_[numCounts_++] = {&stat, n};
    }

    /** `n` refusals whose LRU fields a later replay() overwrites:
     *  counters grow n-fold, stamps are taken but not written. */
    void
    repeat(std::uint64_t n) const
    {
        for (unsigned i = 0; i < numCounts_; ++i)
            *counts_[i].stat += counts_[i].n * double(n);
        stamps.skip(n);
    }

    /** One refusal, exactly as a ticked cycle makes it. */
    void
    replay() const
    {
        for (unsigned i = 0; i < numCounts_; ++i)
            *counts_[i].stat += counts_[i].n;
        stamps.replay();
    }

    StampLog stamps;

  private:
    struct Count
    {
        stats::Scalar *stat;
        double n;
    };
    std::array<Count, 12> counts_{};
    unsigned numCounts_ = 0;
};

class Renamer
{
  public:
    virtual ~Renamer() = default;

    /**
     * Coarse cause of the most recent rename() refusal, for the cycle
     * taxonomy: transfer backpressure (the spill/fill ASTQ is full, so
     * the stall is really memory-system pressure) versus everything
     * else (free list, table conflicts, rename ports).
     */
    enum class StallCause : std::uint8_t
    {
        FreeList,            ///< registers / table / ports exhausted
        TransferBackpressure ///< spill-fill queue (ASTQ) full
    };

    /** Cause of the last rename() that returned false. Only meaningful
     *  immediately after a refusal; defaults to FreeList. */
    virtual StallCause
    lastStallCause() const
    {
        return StallCause::FreeList;
    }

    /** Per-thread execution context (ABI flag for address generation). */
    virtual void
    setThreadContext(ThreadId tid, bool windowedAbi)
    {
        (void)tid;
        (void)windowedAbi;
    }

    /** Called once at the top of each rename cycle (resets port use). */
    virtual void beginCycle(Cycle now) { (void)now; }

    /** True while an observer needs beginCycle() on every cycle (an
     *  attached register-cache probe); turns idle-cycle skipping off. */
    virtual bool observesEveryCycle() const { return false; }

    /**
     * Idle-cycle skipping: dry-run rename(inst) as the next attempt of
     * the current rename cycle, that is after beginCycle() and this
     * cycle's earlier attempts (a refused VCA rename still uses rename
     * ports). Returns true when rename(inst) would refuse with effects
     * a skipped cycle can replay, with those effects in `fx` and
     * lastStallCause() naming the cause. The dry run changes nothing
     * but the cycle's port use, which the next beginCycle() resets.
     * The default keeps every rename ticked.
     */
    virtual bool
    dryRunRefusal(DynInst &inst, RefusalEffects &fx)
    {
        (void)inst;
        (void)fx;
        return false;
    }

    /**
     * Rename one instruction in program order. On success fills the
     * inst's physical register fields and returns true. Returns false
     * to stall (no free registers, table conflict, port/ASTQ limits);
     * the caller retries the same instruction next cycle with no state
     * to undo.
     */
    virtual bool rename(DynInst &inst, Cycle now) = 0;

    /** In-order commit notification. */
    virtual CommitAction commitInst(DynInst &inst) = 0;

    /**
     * Undo one squashed instruction's rename effects. Called
     * youngest-first for every renamed instruction being flushed.
     */
    virtual void squashInst(DynInst &inst) = 0;

    /**
     * Execute a window trap requested by commitInst (the pipeline has
     * already been flushed). Moves architectural values and enqueues
     * the timing transfer ops.
     */
    virtual void performTrap(ThreadId tid) { (void)tid; }

    /**
     * Rename-stage stall cycles to rebuild the map after a mispredict
     * (the P4-style commit-table walk of Section 2.1.3).
     * @param instsBeforeBranch ROB entries between head and the branch
     */
    virtual unsigned
    recoveryCycles(unsigned instsBeforeBranch) const
    {
        (void)instsBeforeBranch;
        return 0;
    }

    /** Extra front-end stages (VCA's second rename stage, Figure 1). */
    virtual unsigned extraFrontendCycles() const { return 0; }

    // ---- Transfer-op service (driven by the LSU) ----

    /** True if a transfer op is waiting to issue. */
    virtual bool hasTransferOp() const { return false; }

    /** Pop the head transfer op (only when hasTransferOp()). */
    virtual TransferOp popTransferOp();

    /** Notification that a popped transfer op's cache access finished. */
    virtual void transferDone(const TransferOp &op) { (void)op; }

    /**
     * True while rename must stay blocked until transfers drain
     * (conventional window traps serialize the pipeline; VCA transfers
     * do not block).
     */
    virtual bool transfersBlockRename() const { return false; }

    // ---- Switch-in protocol (functional fast-forward → detailed) ----

    /**
     * Return to the state construction leaves (thread contexts and an
     * attached probe kept), dropping every in-flight rename without
     * undoing it: the core is draining its whole pipeline at once and
     * has already reset the physical register file. Statistics are
     * left to the owner's resetStats().
     */
    virtual void drain() = 0;

    /**
     * Install a functional core's architectural register state as this
     * renamer's committed state for @p tid. Only legal before the
     * first simulated cycle (of the core's life or since a drain),
     * while the pipeline is empty; the thread's memory image must
     * already hold the (relocated) functional image so renamers that
     * keep registers in memory find their values.
     */
    virtual void switchIn(ThreadId tid, const func::ArchState &state);

    /**
     * Committed architectural value of one register, read through
     * whatever structure this renamer keeps it in (RAT + physical
     * file, window frames, memory-mapped register space). Used to
     * check the switch-in transfer invariant against the functional
     * golden model.
     */
    virtual std::uint64_t readArchReg(ThreadId tid, isa::RegClass cls,
                                      RegIndex idx);

    /**
     * Map an address from the functional core's register space (which
     * always uses thread 0's layout) into this renamer's register
     * space for @p tid. Identity unless the renamer places each
     * thread's memory-mapped registers in a distinct region.
     */
    virtual Addr
    relocateRegSpace(ThreadId tid, Addr addr) const
    {
        (void)tid;
        return addr;
    }

    /** Internal-consistency check for tests (panics on violation). */
    virtual void validate() const {}
};

} // namespace vca::cpu

#endif // VCA_CPU_RENAMER_HH
