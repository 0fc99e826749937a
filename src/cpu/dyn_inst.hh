/**
 * @file
 * Dynamic instruction record and its slab allocator.
 *
 * A DynInst carries one instruction's state through the pipeline:
 * prediction checkpoints, rename results (physical register indices or
 * the VCA logical-register memory addresses), execution results, and
 * the undo information squash walks need. Instances are recycled
 * through an InstPool to keep the simulator allocation-free in steady
 * state.
 */

#ifndef VCA_CPU_DYN_INST_HH
#define VCA_CPU_DYN_INST_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "bpred/bpred.hh"
#include "isa/inst.hh"
#include "sim/types.hh"

namespace vca::cpu {

struct DynInst
{
    // Identity.
    const isa::StaticInst *si = nullptr;
    Addr pc = 0;
    ThreadId tid = 0;
    std::uint64_t seq = 0; ///< global program-order sequence number

    // Fetch / prediction.
    Addr predNpc = 0;
    bool predTaken = false;
    bpred::BPredCheckpoint bpCkpt{};
    bool hasBpCkpt = false;

    // Rename results.
    PhysRegIndex srcPhys[2] = {invalidPhysReg, invalidPhysReg};
    PhysRegIndex destPhys = invalidPhysReg;

    // Conventional-renamer undo info.
    std::int32_t destLogical = -1;
    PhysRegIndex prevDestPhys = invalidPhysReg;
    std::int32_t prevDepth = -1; ///< window depth before this call/ret

    // VCA rename info.
    Addr srcAddr[2] = {invalidAddr, invalidAddr};
    Addr destAddr = invalidAddr;
    Addr prevWbp = invalidAddr;
    PhysRegIndex vcaPrevFront = invalidPhysReg;
    bool vcaCreatedEntry = false;

    // Pipeline status.
    bool renamed = false;
    bool issued = false;
    bool completed = false;
    bool squashed = false;

    // Pipeline stage timestamps (cycles), captured as the instruction
    // flows and emitted by the O3PipeView tracer at commit. Invariant:
    // fetch <= decode <= rename <= dispatch <= issue <= complete.
    Cycle fetchTick = 0;
    Cycle decodeTick = 0;
    Cycle renameTick = 0;
    Cycle dispatchTick = 0;
    Cycle issueTick = 0;
    Cycle completeTick = 0;

    // Execution.
    std::uint64_t result = 0;
    Addr effAddr = invalidAddr;
    std::uint64_t storeData = 0;
    bool effAddrValid = false;

    // Control resolution.
    Addr actualNpc = 0;
    bool actualTaken = false;
    bool mispredicted = false;

    // Queue positions.
    std::int32_t iqSlot = -1;
    std::int32_t lsqSlot = -1;

    bool isLoad() const { return si->isLoad; }
    bool isStore() const { return si->isStore; }
    bool isControl() const { return si->isControl(); }

    /** Reset for reuse from the pool. */
    void
    reset()
    {
        *this = DynInst{};
    }
};

/**
 * Slab allocator for DynInst. Pointers stay valid until release();
 * capacity grows on demand and is bounded in practice by ROB size plus
 * front-end buffering.
 */
class InstPool
{
  public:
    DynInst *
    acquire()
    {
        if (free_.empty()) {
            slabs_.push_back(std::make_unique<DynInst>());
            return slabs_.back().get();
        }
        DynInst *inst = free_.back();
        free_.pop_back();
        inst->reset();
        return inst;
    }

    void
    release(DynInst *inst)
    {
        free_.push_back(inst);
    }

    /** Return every instruction to the pool at once (a drained core
     *  drops its in-flight instructions without squashing them). */
    void
    releaseAll()
    {
        free_.clear();
        for (const auto &slab : slabs_)
            free_.push_back(slab.get());
    }

    size_t allocated() const { return slabs_.size(); }

  private:
    std::vector<std::unique_ptr<DynInst>> slabs_;
    std::vector<DynInst *> free_;
};

} // namespace vca::cpu

#endif // VCA_CPU_DYN_INST_HH
