/**
 * @file
 * Functional VRISC-64 simulator.
 *
 * Executes a Program architecturally (no timing) under either ABI. Used
 * for: (1) measuring complete-program dynamic path lengths (paper
 * Table 2 and the execution-time methodology of Section 3.1), (2) as
 * the golden model the timing simulator's commit stream is checked
 * against in the integration tests, and (3) as the fast-forward and
 * warming engine of the sampled and SimPoint modes.
 *
 * Engine. The constructor translates the program once into a micro-op
 * image owned by the FuncSim: per code word, the opcode, the immediate
 * and the host slots of its destination and two sources. Every
 * register operand names a slot of one host array:
 *   - 32 int and 32 fp slots; int r0's slot is the constant zero that
 *     r0 reads and absent sources name;
 *   - a sink that absent destinations (r0 writes, stores, branches)
 *     name;
 *   - under the windowed ABI, the current window frame's 47 slots.
 * Each op also holds the length of the straight run that starts at it:
 * the ops up to, but not including, the next control op, Halt, or the
 * trailing off-image Halt. The engine dispatches once per straight run,
 * not once per instruction: it executes min(run, budget left) ops as a
 * block, with no budget check, pc update or off-image clamp per op,
 * then executes the control op that ends the run. Inside a run each
 * opcode's handler ends in its own indirect jump to the next op's
 * handler (labels-as-values threaded dispatch), so the host predicts
 * each jump from the opcode it follows instead of from one shared
 * switch. The engine has two modes over that image: run(), which only
 * executes and advances pc once per run, and trace(), which also
 * records each executed instruction's pc, next pc and effective
 * address into a caller buffer. step() is a one-instruction trace.
 *
 * Frame cache. Under the windowed ABI a windowed register lives at its
 * memory-mapped logical-register address (exactly the VCA model).
 * Frames are 47 x 8 = 376 bytes, densely packed, and straddle 4 KiB
 * pages. The engine runs on the current frame's host slots, not on
 * memory: they are loaded from memory when the window moves (at
 * construction, Call and Ret), and only the slots written since are
 * stored back:
 *   - before the window moves;
 *   - before any load or store at or above layout::regSpaceBase (a
 *     store into the current frame also updates its slot);
 *   - before every public member returns.
 * So between calls the memory image, down to which pages exist, is the
 * one that writing every register straight through to memory gives.
 *
 * Contract. Between calls the caller may read the whole memory image
 * and may write any word outside the current window frame,
 * [windowBase(), windowBase() + layout::windowFrameBytes). The FuncSim
 * owns the frame's words until the window moves: a write there by
 * anyone else is ignored or overwritten. Set registers through
 * writeIntReg() instead.
 */

#ifndef VCA_FUNC_FUNC_SIM_HH
#define VCA_FUNC_FUNC_SIM_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "isa/program.hh"
#include "isa/registers.hh"
#include "mem/sparse_memory.hh"
#include "sim/types.hh"

namespace vca::func {

/** Aggregate execution statistics. */
struct FuncSimStats
{
    InstCount insts = 0;
    InstCount loads = 0;
    InstCount stores = 0;
    InstCount calls = 0;
    InstCount condBranches = 0;
    InstCount takenCondBranches = 0;
    unsigned maxCallDepth = 0;
};

/**
 * One instruction executed in trace mode: what the warm model and BBV
 * collection need of it. Everything else (store or load, branch kind)
 * is a property of the static instruction at pc.
 */
struct TraceRecord
{
    Addr pc = 0;
    Addr npc = 0;
    bool isMem = false;
    Addr effAddr = 0; ///< 8-byte aligned when isMem, else 0
};

/**
 * Instructions the sampling layer traces per call: enough to amortize
 * the call, few enough that the record buffer (128 KiB) stays in the
 * host's L2.
 */
constexpr InstCount kTraceChunkInsts = 4096;

/** Record of the most recently executed instruction (for co-sim). */
struct StepRecord
{
    Addr pc = 0;
    Addr npc = 0;
    bool hasDest = false;
    isa::ArchReg dest{};
    std::uint64_t destValue = 0;
    bool isMem = false;
    Addr effAddr = 0;
    bool halted = false;
};

/**
 * Complete architectural register state at an instruction boundary, as
 * seen from the current register window (windowed ABI) or the flat
 * register file (conventional ABI). Together with the memory image
 * this is everything the detailed core needs to switch in.
 */
struct ArchState
{
    Addr pc = 0;
    bool windowedAbi = false;
    unsigned callDepth = 0;
    Addr windowBase = 0; ///< wbp at capture (windowed ABI only)
    std::uint64_t intRegs[isa::numIntRegs] = {};
    std::uint64_t fpRegs[isa::numFloatRegs] = {}; ///< raw IEEE bits
};

/** Load a program's data segments into a memory image. */
void loadProgramData(const isa::Program &prog, mem::SparseMemory &memory);

class FuncSim
{
  public:
    /**
     * @param prog   finalized program (determines the ABI)
     * @param memory architectural memory (caller may pre-share/populate;
     *               data segments are loaded by the constructor)
     */
    FuncSim(const isa::Program &prog, mem::SparseMemory &memory);

    /**
     * Execute one instruction (a one-instruction trace()); fills rec.
     * Returns false once halted.
     */
    bool step(StepRecord &rec);

    /**
     * Run until HALT or the instruction limit. Architecturally the same
     * as trace() of that many instructions, without the records.
     * @return cumulative statistics
     */
    FuncSimStats run(InstCount maxInsts =
                         std::numeric_limits<InstCount>::max());

    /**
     * Trace mode: run() that also appends one record per executed
     * instruction to @p out, which must hold @p maxInsts records. HALT
     * executes no instruction and is not recorded. Like every public
     * member, the written frame slots reach memory only when the call
     * returns, so the caller sees the image as of the last recorded
     * instruction, not of each one.
     * @return the number of records written (< maxInsts only on HALT)
     */
    InstCount trace(InstCount maxInsts, TraceRecord *out);

    /** Snapshot of the architectural register state (switch-in). */
    ArchState captureState() const;

    /** Current call depth (calls minus returns, floored at 0). */
    unsigned callDepth() const { return depth_; }

    bool halted() const { return halted_; }
    Addr pc() const { return pc_; }
    const FuncSimStats &stats() const { return stats_; }

    /** Architectural register read (for tests). */
    std::uint64_t readIntReg(RegIndex idx) const;
    double readFloatReg(RegIndex idx) const;

    /** Architectural register write (for tests / setup). */
    void writeIntReg(RegIndex idx, std::uint64_t value);

    /** Current window base pointer (windowed ABI only). */
    Addr windowBase() const { return wbp_; }

  private:
    /** One pre-resolved instruction; the slots index regs_. */
    struct Op
    {
        isa::Opcode op = isa::Opcode::Halt;
        std::uint8_t dst = 0;
        std::uint8_t src0 = 0;
        std::uint8_t src1 = 0;
        std::int32_t imm = 0;
        /** Ops in the straight run starting here: 0 for a control op
         *  or Halt, else 1 + the next op's run. */
        std::uint32_t run = 0;
    };

    /** regs_ layout: frame slots first, so "slot < windowSlots" is the
     *  frame test. */
    static constexpr unsigned kIntSlot = isa::windowSlots;
    static constexpr unsigned kFpSlot = kIntSlot + isa::numIntRegs;
    static constexpr unsigned kZeroSlot = kIntSlot + isa::regZero;
    static constexpr unsigned kSinkSlot = kFpSlot + isa::numFloatRegs;
    static constexpr unsigned kNumSlots = kSinkSlot + 1;

    /** Host slot holding an architectural register. */
    unsigned slotOf(isa::RegClass cls, RegIndex idx) const;
    std::uint64_t readReg(isa::RegClass cls, RegIndex idx) const;

    /** Load the current frame's slots from memory (windowed ABI). */
    void loadFrame();
    /** Store the frame slots named by the bits of @p dirty. */
    void storeFrame(std::uint64_t dirty);

    /**
     * The engine: execute up to maxInsts instructions from pc_; Trace
     * appends a record per instruction to out. Returns the number of
     * instructions executed.
     */
    template <bool Trace>
    InstCount execute(InstCount maxInsts, TraceRecord *out);

    const isa::Program &prog_;
    mem::SparseMemory &mem_;
    /** One op per code word plus a trailing Halt that every pc off the
     *  image maps to. */
    std::vector<Op> ops_;
    Addr pc_ = 0;
    bool halted_ = false;
    unsigned depth_ = 0;

    bool windowed_ = false;
    Addr wbp_ = 0;

    std::uint64_t regs_[kNumSlots] = {};

    FuncSimStats stats_;
};

} // namespace vca::func

#endif // VCA_FUNC_FUNC_SIM_HH
