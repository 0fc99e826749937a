#include "cpu/conv_renamer.hh"

#include "sim/logging.hh"
#include "trace/debug_flags.hh"

namespace vca::cpu {

using isa::RegClass;
namespace layout = isa::layout;

TransferOp
Renamer::popTransferOp()
{
    panic("popTransferOp called on a renamer with no transfer queue");
}

void
Renamer::switchIn(ThreadId tid, const func::ArchState &state)
{
    (void)tid;
    (void)state;
    panic("switch-in not supported by this renamer");
}

std::uint64_t
Renamer::readArchReg(ThreadId tid, isa::RegClass cls, RegIndex idx)
{
    (void)tid;
    (void)cls;
    (void)idx;
    panic("readArchReg not supported by this renamer");
}

// ---------------------------------------------------------------------
// ConvRenamer
// ---------------------------------------------------------------------

ConvRenamer::ConvRenamer(const CpuParams &params, PhysRegFile &regs,
                         unsigned logicalPerThread,
                         stats::StatGroup *parent)
    : renameStallsFreeList(parent, "rename_stalls_freelist",
                           "rename stalls: no free physical register"),
      params_(params), regs_(regs), logicalPerThread_(logicalPerThread)
{
    const unsigned needed = logicalPerThread_ * params.numThreads;
    if (params.physRegs <= needed) {
        fatal("conventional renamer needs more physical registers (%u) "
              "than logical registers (%u)", params.physRegs, needed);
    }
    rat_.assign(params.numThreads,
                std::vector<PhysRegIndex>(logicalPerThread_));
    resetMapping();
}

void
ConvRenamer::resetMapping()
{
    // Initial state: every logical register owns a physical register
    // holding its initial (zero) value; the rest form the free list.
    PhysRegIndex next = 0;
    for (auto &rat : rat_) {
        for (PhysRegIndex &phys : rat) {
            phys = next;
            regs_.write(next, 0);
            regs_.setReady(next, true);
            ++next;
        }
    }
    freeList_.clear();
    for (unsigned p = next; p < params_.physRegs; ++p)
        freeList_.push_back(static_cast<PhysRegIndex>(p));
}

void
ConvRenamer::drain()
{
    resetMapping();
}

std::int32_t
ConvRenamer::logicalIndex(ThreadId tid, RegClass cls, RegIndex idx) const
{
    (void)tid;
    return static_cast<std::int32_t>(isa::flatIndex(cls, idx));
}

void
ConvRenamer::freePhys(PhysRegIndex phys)
{
    freeList_.push_back(phys);
}

bool
ConvRenamer::rename(DynInst &inst, Cycle now)
{
    // Only reached when the dynamic type is ConvRenamer itself;
    // WindowConvRenamer overrides rename() with its own instantiation.
    return renameImpl<ConvRenamer>(inst, now);
}

CommitAction
ConvRenamer::commitInst(DynInst &inst)
{
    if (inst.si->hasDest)
        freePhys(inst.prevDestPhys);
    return {};
}

void
ConvRenamer::squashInst(DynInst &inst)
{
    if (inst.si->hasDest) {
        ratWrite(inst.tid, inst.destLogical, inst.prevDestPhys);
        freePhys(inst.destPhys);
    }
    undoControl(inst);
}

void
ConvRenamer::validate() const
{
    // Every physical register is either mapped by exactly one RAT entry,
    // on the free list, or held as a previous mapping by an in-flight
    // instruction. We can check the disjointness of RAT and free list.
    std::vector<bool> mapped(regs_.numRegs(), false);
    for (const auto &rat : rat_) {
        for (PhysRegIndex p : rat) {
            if (mapped.at(p))
                panic("physical register %d mapped twice", int(p));
            mapped[p] = true;
        }
    }
    for (PhysRegIndex p : freeList_) {
        if (mapped.at(p))
            panic("physical register %d both mapped and free", int(p));
    }
}

void
ConvRenamer::switchIn(ThreadId tid, const func::ArchState &state)
{
    if (state.windowedAbi)
        panic("flat renamer cannot switch in windowed-ABI state");
    for (unsigned f = 0; f < isa::numArchRegs; ++f) {
        const isa::ArchReg r = isa::fromFlatIndex(f);
        const std::uint64_t v = r.cls == RegClass::Int
            ? state.intRegs[r.idx] : state.fpRegs[r.idx];
        const PhysRegIndex phys =
            ratLookup(tid, logicalIndex(tid, r.cls, r.idx));
        regs_.write(phys, v);
        regs_.setReady(phys, true);
    }
}

std::uint64_t
ConvRenamer::readArchReg(ThreadId tid, RegClass cls, RegIndex idx)
{
    if (cls == RegClass::Int && idx == isa::regZero)
        return 0;
    return regs_.read(ratLookup(tid, logicalIndex(tid, cls, idx)));
}

// ---------------------------------------------------------------------
// WindowConvRenamer
// ---------------------------------------------------------------------

unsigned
WindowConvRenamer::windowsForConfig(const CpuParams &params)
{
    const unsigned g = isa::globalSlots;
    const unsigned w = isa::windowSlots;
    if (params.physRegs <= g + w + params.windowMinRenameRegs) {
        // Cannot satisfy the rename-register reservation: fall back to
        // the single window required for operation (Section 4.1 carves
        // out "the maximum number of windows ... while leaving at least
        // 64 rename registers"; below that we still need one window).
        return 1;
    }
    return (params.physRegs - g - params.windowMinRenameRegs) / w;
}

WindowConvRenamer::WindowConvRenamer(const CpuParams &params,
                                     PhysRegFile &regs,
                                     std::vector<mem::SparseMemory *>
                                         memories,
                                     stats::StatGroup *parent)
    : ConvRenamer(params, regs,
                  isa::globalSlots +
                      windowsForConfig(params) * isa::windowSlots,
                  parent),
      overflowTraps(parent, "overflow_traps", "window overflow traps"),
      underflowTraps(parent, "underflow_traps", "window underflow traps"),
      windowSaves(parent, "window_saves",
                  "registers stored by overflow handling"),
      windowRestores(parent, "window_restores",
                     "registers loaded by underflow handling"),
      numWindows_(windowsForConfig(params)),
      memories_(std::move(memories))
{
    threads_.resize(params.numThreads);
    resetWindows();
}

void
WindowConvRenamer::resetWindows()
{
    for (auto &t : threads_) {
        t = ThreadWindows{};
        t.dirty.assign(numWindows_,
                       std::vector<bool>(isa::windowSlots, false));
        setRenameDepth(t, 0);
    }
}

void
WindowConvRenamer::drain()
{
    ConvRenamer::drain();
    resetWindows();
    transferQueue_.clear();
    outstandingTransfers_ = 0;
}

Addr
WindowConvRenamer::frameAddr(unsigned depth, unsigned slot)
{
    // One frame per call depth, growing down like the VCA register
    // stack; the save area is thread-private memory either way.
    return layout::windowStackTop -
           Addr(depth + 1) * layout::windowFrameBytes + Addr(slot) * 8;
}

std::int32_t
WindowConvRenamer::logicalIndex(ThreadId tid, RegClass cls,
                                RegIndex idx) const
{
    if (!isa::isWindowed(cls, idx))
        return static_cast<std::int32_t>(isa::globalSlot(cls, idx));
    // threads_[tid].windowBase caches the depth-derived window offset
    // (see setRenameDepth), keeping the per-operand path modulo-free.
    return threads_[tid].windowBase +
           static_cast<std::int32_t>(isa::windowSlot(cls, idx));
}

void
WindowConvRenamer::preRename(DynInst &inst)
{
    auto &tw = threads_[inst.tid];
    if (inst.si->isCall) {
        // The destination (ra) is renamed in the callee's window.
        inst.prevDepth = tw.renameDepth;
        setRenameDepth(tw, tw.renameDepth + 1);
    }
}

void
WindowConvRenamer::postRename(DynInst &inst)
{
    auto &tw = threads_[inst.tid];
    if (inst.si->isRet) {
        // Sources (ra) were read in the callee's window; the decrement
        // takes effect for younger instructions.
        inst.prevDepth = tw.renameDepth;
        if (tw.renameDepth > 0)
            setRenameDepth(tw, tw.renameDepth - 1);
    }
}

void
WindowConvRenamer::undoControl(DynInst &inst)
{
    if (inst.prevDepth >= 0)
        setRenameDepth(threads_[inst.tid], inst.prevDepth);
}

CommitAction
WindowConvRenamer::commitInst(DynInst &inst)
{
    CommitAction action = ConvRenamer::commitInst(inst);
    auto &tw = threads_[inst.tid];
    const isa::StaticInst &si = *inst.si;

    if (si.hasDest && !si.isCall &&
        isa::isWindowed(si.dest.cls, si.dest.idx)) {
        const unsigned window =
            static_cast<unsigned>(tw.commitDepth) % numWindows_;
        tw.dirty[window][isa::windowSlot(si.dest.cls, si.dest.idx)] =
            true;
    }

    if (si.isCall) {
        ++tw.commitDepth;
        if (tw.commitDepth - tw.oldestResident + 1 >
            static_cast<std::int32_t>(numWindows_)) {
            tw.pendingTrap = ThreadWindows::Trap::Overflow;
            // The call's ra commit overwrote the victim window's ra RAT
            // slot (same window copy); the victim's value survives in
            // the call's previous-mapping register until rename resumes.
            tw.trapOldRaPhys = inst.prevDestPhys;
            action.windowTrap = true;
            action.stallCycles = params_.windowTrapCycles;
        } else {
            // Fresh frame reuses a dead window copy: it starts clean,
            // except for the ra the call just wrote.
            const unsigned w =
                static_cast<unsigned>(tw.commitDepth) % numWindows_;
            std::fill(tw.dirty[w].begin(), tw.dirty[w].end(), false);
            tw.dirty[w][isa::windowSlot(RegClass::Int, isa::regRa)] = true;
        }
    } else if (si.isRet) {
        --tw.commitDepth;
        if (tw.commitDepth < 0)
            panic("window machine: return below depth 0");
        if (tw.commitDepth < tw.oldestResident) {
            tw.pendingTrap = ThreadWindows::Trap::Underflow;
            action.windowTrap = true;
            action.stallCycles = params_.windowTrapCycles;
        }
    }
    return action;
}

void
WindowConvRenamer::performTrap(ThreadId tid)
{
    auto &tw = threads_.at(tid);
    mem::SparseMemory &memory = *memories_.at(tid);

    if (tw.pendingTrap == ThreadWindows::Trap::Overflow) {
        ++overflowTraps;
        DPRINTFT(WindowTrap, tid,
                 "overflow trap: spilling window %d (depth %d)",
                 int(tw.oldestResident), int(tw.commitDepth));
        // Spill the oldest resident window's dirty registers. The
        // pipeline is flushed, so the RAT is architectural.
        const std::int32_t victim = tw.oldestResident;
        const unsigned w = static_cast<unsigned>(victim) % numWindows_;
        for (unsigned f = 0; f < isa::numArchRegs; ++f) {
            const isa::ArchReg r = isa::fromFlatIndex(f);
            if (!isa::isWindowed(r.cls, r.idx))
                continue;
            const unsigned slot = isa::windowSlot(r.cls, r.idx);
            if (!tw.dirty[w][slot])
                continue;
            const std::int32_t l = static_cast<std::int32_t>(
                isa::globalSlots + w * isa::windowSlots + slot);
            PhysRegIndex phys = ratLookup(tid, l);
            if (slot == isa::windowSlot(RegClass::Int, isa::regRa) &&
                tw.trapOldRaPhys != invalidPhysReg) {
                phys = tw.trapOldRaPhys;
            }
            memory.write(frameAddr(victim, slot), regs_.read(phys));
            transferQueue_.push_back(
                {true, frameAddr(victim, slot), invalidPhysReg, tid});
            ++outstandingTransfers_;
            ++windowSaves;
        }
        ++tw.oldestResident;
        // The victim window copy now hosts the new frame: clean, except
        // for the freshly written ra.
        std::fill(tw.dirty[w].begin(), tw.dirty[w].end(), false);
        tw.dirty[w][isa::windowSlot(RegClass::Int, isa::regRa)] = true;
    } else if (tw.pendingTrap == ThreadWindows::Trap::Underflow) {
        ++underflowTraps;
        DPRINTFT(WindowTrap, tid,
                 "underflow trap: restoring window %d",
                 int(tw.commitDepth));
        // Restore the whole departing-to window from memory -- "fill a
        // new window on an underflow" including dead registers.
        const std::int32_t restored = tw.commitDepth;
        const unsigned w = static_cast<unsigned>(restored) % numWindows_;
        for (unsigned f = 0; f < isa::numArchRegs; ++f) {
            const isa::ArchReg r = isa::fromFlatIndex(f);
            if (!isa::isWindowed(r.cls, r.idx))
                continue;
            const unsigned slot = isa::windowSlot(r.cls, r.idx);
            const std::int32_t l = static_cast<std::int32_t>(
                isa::globalSlots + w * isa::windowSlots + slot);
            const PhysRegIndex phys = ratLookup(tid, l);
            regs_.write(phys, memory.read(frameAddr(restored, slot)));
            regs_.setReady(phys, true);
            transferQueue_.push_back(
                {false, frameAddr(restored, slot), invalidPhysReg, tid});
            ++outstandingTransfers_;
            ++windowRestores;
        }
        --tw.oldestResident;
        std::fill(tw.dirty[w].begin(), tw.dirty[w].end(), false);
    }
    tw.pendingTrap = ThreadWindows::Trap::None;
    tw.trapOldRaPhys = invalidPhysReg;
}

void
WindowConvRenamer::switchIn(ThreadId tid, const func::ArchState &state)
{
    if (!state.windowedAbi)
        panic("window renamer expects windowed-ABI state");
    auto &tw = threads_.at(tid);
    mem::SparseMemory &memory = *memories_.at(tid);

    tw.commitDepth = static_cast<std::int32_t>(state.callDepth);
    setRenameDepth(tw, tw.commitDepth);
    tw.oldestResident = std::max<std::int32_t>(
        0, tw.commitDepth - static_cast<std::int32_t>(numWindows_) + 1);
    tw.pendingTrap = ThreadWindows::Trap::None;
    tw.trapOldRaPhys = invalidPhysReg;

    // Globals come straight from the captured register state.
    for (unsigned f = 0; f < isa::numArchRegs; ++f) {
        const isa::ArchReg r = isa::fromFlatIndex(f);
        if (isa::isWindowed(r.cls, r.idx))
            continue;
        const std::uint64_t v = r.cls == RegClass::Int
            ? state.intRegs[r.idx] : state.fpRegs[r.idx];
        const PhysRegIndex phys = ratLookup(
            tid,
            static_cast<std::int32_t>(isa::globalSlot(r.cls, r.idx)));
        regs_.write(phys, v);
        regs_.setReady(phys, true);
    }

    // Resident windows load from the functional memory image: the
    // functional core keeps windowed registers in memory at exactly
    // frameAddr's addresses, so frames at every call depth — resident
    // or spilled — are already where traps expect them.
    for (std::int32_t d = tw.oldestResident; d <= tw.commitDepth; ++d) {
        const unsigned w = static_cast<unsigned>(d) % numWindows_;
        for (unsigned f = 0; f < isa::numArchRegs; ++f) {
            const isa::ArchReg r = isa::fromFlatIndex(f);
            if (!isa::isWindowed(r.cls, r.idx))
                continue;
            const unsigned slot = isa::windowSlot(r.cls, r.idx);
            const std::int32_t l = static_cast<std::int32_t>(
                isa::globalSlots + w * isa::windowSlots + slot);
            const PhysRegIndex phys = ratLookup(tid, l);
            regs_.write(phys, memory.read(frameAddr(d, slot)));
            regs_.setReady(phys, true);
        }
        // Register values equal their memory frames, so every slot
        // starts clean: an overflow spill would be redundant.
        std::fill(tw.dirty[w].begin(), tw.dirty[w].end(), false);
    }
}

std::uint64_t
WindowConvRenamer::readArchReg(ThreadId tid, RegClass cls, RegIndex idx)
{
    if (cls == RegClass::Int && idx == isa::regZero)
        return 0;
    const auto &tw = threads_.at(tid);
    std::int32_t l;
    if (isa::isWindowed(cls, idx)) {
        const unsigned w =
            static_cast<unsigned>(tw.commitDepth) % numWindows_;
        l = static_cast<std::int32_t>(isa::globalSlots +
                                      w * isa::windowSlots +
                                      isa::windowSlot(cls, idx));
    } else {
        l = static_cast<std::int32_t>(isa::globalSlot(cls, idx));
    }
    return regs_.read(ratLookup(tid, l));
}

TransferOp
WindowConvRenamer::popTransferOp()
{
    if (transferQueue_.empty())
        panic("popTransferOp on empty window transfer queue");
    TransferOp op = transferQueue_.front();
    transferQueue_.pop_front();
    return op;
}

void
WindowConvRenamer::transferDone(const TransferOp &op)
{
    (void)op;
    if (outstandingTransfers_ == 0)
        panic("transferDone without outstanding transfers");
    --outstandingTransfers_;
}

} // namespace vca::cpu
