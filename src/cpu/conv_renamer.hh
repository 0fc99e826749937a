/**
 * @file
 * Conventional renaming: a per-thread flat map table over the logical
 * register space plus a shared free list, with walk-based squash undo.
 *
 * ConvRenamer is the paper's baseline. WindowConvRenamer extends it
 * with SPARC-style register windows held *inside* the logical register
 * file: the logical space is enlarged to hold k windows (the most that
 * fit while leaving windowMinRenameRegs rename registers, Section 4.1),
 * and window overflow/underflow traps at commit: the pipeline is
 * flushed, rename stalls for windowTrapCycles, and whole-window
 * save/restore memory operations drain through the data-cache ports.
 */

#ifndef VCA_CPU_CONV_RENAMER_HH
#define VCA_CPU_CONV_RENAMER_HH

#include <deque>
#include <vector>

#include "cpu/params.hh"
#include "cpu/phys_regfile.hh"
#include "cpu/renamer.hh"
#include "isa/program.hh"
#include "stats/statistics.hh"

namespace vca::cpu {

class ConvRenamer : public Renamer
{
  public:
    /**
     * @param logicalPerThread size of each thread's logical space
     *        (64 for the baseline; globals + k*windowSlots for windows)
     */
    ConvRenamer(const CpuParams &params, PhysRegFile &regs,
                unsigned logicalPerThread, stats::StatGroup *parent);

    bool rename(DynInst &inst, Cycle now) override;
    CommitAction commitInst(DynInst &inst) override;
    void squashInst(DynInst &inst) override;
    void validate() const override;

    // renameImpl's only refusal, an empty free list, only counts itself.
    bool
    dryRunRefusal(DynInst &inst, RefusalEffects &fx) override
    {
        if (!refuses(inst))
            return false;
        fx.clear();
        fx.count(renameStallsFreeList);
        return true;
    }

    void drain() override;
    void switchIn(ThreadId tid, const func::ArchState &state) override;
    std::uint64_t readArchReg(ThreadId tid, isa::RegClass cls,
                              RegIndex idx) override;

    unsigned freeRegs() const { return freeList_.size(); }

    stats::Scalar renameStallsFreeList;

  protected:
    /** Every logical register mapped to a zeroed, ready physical
     *  register and the rest free, as constructed. */
    void resetMapping();

    /** Logical index of an architectural register for this thread. */
    virtual std::int32_t logicalIndex(ThreadId tid, isa::RegClass cls,
                                      RegIndex idx) const;

    /** Hooks for the windowed subclass (called inside rename()). */
    virtual void preRename(DynInst &inst) { (void)inst; }
    virtual void postRename(DynInst &inst) { (void)inst; }
    virtual void undoControl(DynInst &inst) { (void)inst; }

    // Inline: one lookup per renamed operand. Construction sizes every
    // per-thread table to logicalPerThread_ and logicalIndex() only
    // produces indices inside it.
    PhysRegIndex
    ratLookup(ThreadId tid, std::int32_t logical) const
    {
        return rat_[tid][logical];
    }
    void
    ratWrite(ThreadId tid, std::int32_t logical, PhysRegIndex phys)
    {
        rat_[tid][logical] = phys;
    }
    void freePhys(PhysRegIndex phys);

    /** rename(inst) would stall: a destination and no free register. */
    bool
    refuses(const DynInst &inst) const
    {
        return inst.si->hasDest && freeList_.empty();
    }

    /**
     * Shared rename body. Statically bound to Derived's logicalIndex
     * and window hooks (qualified calls, no virtual dispatch): each
     * concrete renamer's rename() instantiates it with its own type,
     * which lets the per-operand path inline. Semantics are identical
     * to the previous virtual-dispatch version.
     */
    template <class Derived>
    bool
    renameImpl(DynInst &inst, Cycle now)
    {
        (void)now;
        auto *self = static_cast<Derived *>(this);
        const isa::StaticInst &si = *inst.si;

        if (refuses(inst)) {
            ++renameStallsFreeList;
            return false;
        }

        self->Derived::preRename(inst);

        for (unsigned s = 0; s < si.numSrcs; ++s) {
            if (!si.srcValid[s])
                continue;
            const std::int32_t l = self->Derived::logicalIndex(
                inst.tid, si.src[s].cls, si.src[s].idx);
            inst.srcPhys[s] = ratLookup(inst.tid, l);
        }

        if (si.hasDest) {
            const std::int32_t l = self->Derived::logicalIndex(
                inst.tid, si.dest.cls, si.dest.idx);
            const PhysRegIndex phys = freeList_.back();
            freeList_.pop_back();
            inst.destLogical = l;
            inst.prevDestPhys = ratLookup(inst.tid, l);
            inst.destPhys = phys;
            ratWrite(inst.tid, l, phys);
            regs_.setReady(phys, false);
        }

        self->Derived::postRename(inst);
        inst.renamed = true;
        return true;
    }

    const CpuParams &params_;
    PhysRegFile &regs_;
    unsigned logicalPerThread_;
    std::vector<std::vector<PhysRegIndex>> rat_; ///< per thread
    std::vector<PhysRegIndex> freeList_;
};

class WindowConvRenamer : public ConvRenamer
{
  public:
    WindowConvRenamer(const CpuParams &params, PhysRegFile &regs,
                      std::vector<mem::SparseMemory *> memories,
                      stats::StatGroup *parent);

    /** Windows that fit: max k with G + k*W + minRename <= physRegs. */
    static unsigned windowsForConfig(const CpuParams &params);

    bool
    rename(DynInst &inst, Cycle now) override
    {
        return renameImpl<WindowConvRenamer>(inst, now);
    }
    CommitAction commitInst(DynInst &inst) override;
    void performTrap(ThreadId tid) override;

    void drain() override;
    void switchIn(ThreadId tid, const func::ArchState &state) override;
    std::uint64_t readArchReg(ThreadId tid, isa::RegClass cls,
                              RegIndex idx) override;

    bool hasTransferOp() const override { return !transferQueue_.empty(); }
    TransferOp popTransferOp() override;
    void transferDone(const TransferOp &op) override;
    bool
    transfersBlockRename() const override
    {
        return outstandingTransfers_ > 0;
    }

    unsigned numWindows() const { return numWindows_; }

    stats::Scalar overflowTraps;
    stats::Scalar underflowTraps;
    stats::Scalar windowSaves;    ///< registers written out by overflows
    stats::Scalar windowRestores; ///< registers read back by underflows

  protected:
    std::int32_t logicalIndex(ThreadId tid, isa::RegClass cls,
                              RegIndex idx) const override;
    void preRename(DynInst &inst) override;
    void postRename(DynInst &inst) override;
    void undoControl(DynInst &inst) override;

  private:
    // renameImpl<WindowConvRenamer> (instantiated in the base) makes
    // qualified calls into this class's protected hooks.
    friend class ConvRenamer;

    /** Backing-memory address of window slot s at call depth d. */
    static Addr frameAddr(unsigned depth, unsigned slot);

    struct ThreadWindows
    {
        std::int32_t renameDepth = 0; ///< speculative (rename-stage)
        std::int32_t commitDepth = 0; ///< architectural
        std::int32_t oldestResident = 0;
        // Cached globalSlots + (renameDepth % numWindows) * windowSlots
        // so per-operand logicalIndex() needs no modulo; refreshed by
        // setRenameDepth() whenever renameDepth changes.
        std::int32_t windowBase = 0;
        // dirty[w][slot]: written since window copy w became current.
        std::vector<std::vector<bool>> dirty;
        enum class Trap { None, Overflow, Underflow } pendingTrap =
            Trap::None;
        // Physical register holding the *victim* window's ra value when
        // an overflowing call has already overwritten the shared RAT
        // slot (the call's previous-mapping register).
        PhysRegIndex trapOldRaPhys = invalidPhysReg;
    };

    /** Every thread at depth 0 with clean windows, as constructed. */
    void resetWindows();

    void
    setRenameDepth(ThreadWindows &tw, std::int32_t depth)
    {
        tw.renameDepth = depth;
        tw.windowBase = static_cast<std::int32_t>(
            isa::globalSlots +
            (static_cast<unsigned>(depth) % numWindows_) *
                isa::windowSlots);
    }

    unsigned numWindows_ = 0;
    std::vector<mem::SparseMemory *> memories_;
    std::vector<ThreadWindows> threads_;
    std::deque<TransferOp> transferQueue_;
    unsigned outstandingTransfers_ = 0;
};

} // namespace vca::cpu

#endif // VCA_CPU_CONV_RENAMER_HH
