#include "func/func_sim.hh"

#include <algorithm>
#include <bit>
#include <iterator>

#include "isa/semantics.hh"
#include "sim/logging.hh"

namespace vca::func {

using isa::Opcode;
using isa::RegClass;
namespace layout = isa::layout;

void
loadProgramData(const isa::Program &prog, mem::SparseMemory &memory)
{
    for (const isa::DataSegment &seg : prog.data)
        memory.writeNonzeroWords(seg.base, seg.words.data(),
                                 seg.words.size());
}

FuncSim::FuncSim(const isa::Program &prog, mem::SparseMemory &memory)
    : prog_(prog), mem_(memory)
{
    if (!prog.finalized())
        panic("FuncSim: program '%s' not finalized", prog.name.c_str());
    pc_ = prog.entry;
    windowed_ = prog.windowedAbi;
    wbp_ = layout::initialWindowPointer();
    loadProgramData(prog, memory);

    ops_.reserve(prog.size() + 1);
    for (Addr pc = 0; pc < prog.size(); ++pc) {
        const isa::StaticInst &si = prog.inst(pc);
        if (si.imm < std::numeric_limits<std::int32_t>::min() ||
            si.imm > std::numeric_limits<std::int32_t>::max())
            panic("FuncSim: immediate %lld at pc %llu out of range",
                  (long long)si.imm, (unsigned long long)pc);
        Op op;
        op.op = si.op;
        op.imm = static_cast<std::int32_t>(si.imm);
        op.dst = static_cast<std::uint8_t>(
            si.hasDest ? slotOf(si.dest.cls, si.dest.idx) : kSinkSlot);
        std::uint8_t *src[2] = {&op.src0, &op.src1};
        for (unsigned i = 0; i < 2; ++i) {
            *src[i] = static_cast<std::uint8_t>(
                i < si.numSrcs && si.srcValid[i]
                    ? slotOf(si.src[i].cls, si.src[i].idx) : kZeroSlot);
        }
        ops_.push_back(op);
    }
    ops_.push_back(Op{});
    // Straight-run lengths, back to front: each op's is its
    // successor's plus one, and 0 for a control op or Halt.
    for (Addr pc = prog.size(); pc-- > 0;) {
        const isa::StaticInst &si = prog.inst(pc);
        ops_[pc].run = si.isControl() || si.isHalt ? 0 : ops_[pc + 1].run + 1;
    }

    if (windowed_)
        loadFrame();
}

unsigned
FuncSim::slotOf(RegClass cls, RegIndex idx) const
{
    if (windowed_ && isa::isWindowed(cls, idx))
        return isa::windowSlot(cls, idx);
    return (cls == RegClass::Int ? kIntSlot : kFpSlot) + idx;
}

std::uint64_t
FuncSim::readReg(RegClass cls, RegIndex idx) const
{
    return regs_[slotOf(cls, idx)];
}

void
FuncSim::loadFrame()
{
    mem_.readWords(wbp_, isa::windowSlots, regs_);
}

void
FuncSim::storeFrame(std::uint64_t dirty)
{
    for (; dirty; dirty &= dirty - 1) {
        const unsigned i = std::countr_zero(dirty);
        mem_.write(wbp_ + i * layout::regSlotBytes, regs_[i]);
    }
}

std::uint64_t
FuncSim::readIntReg(RegIndex idx) const
{
    return readReg(RegClass::Int, idx);
}

double
FuncSim::readFloatReg(RegIndex idx) const
{
    return std::bit_cast<double>(readReg(RegClass::Float, idx));
}

void
FuncSim::writeIntReg(RegIndex idx, std::uint64_t value)
{
    if (idx == isa::regZero)
        return;
    const unsigned slot = slotOf(RegClass::Int, idx);
    regs_[slot] = value;
    if (slot < isa::windowSlots)
        storeFrame(std::uint64_t(1) << slot);
}

bool
FuncSim::step(StepRecord &rec)
{
    rec = StepRecord{};
    if (halted_) {
        rec.halted = true;
        return false;
    }
    const isa::StaticInst &si = prog_.inst(pc_);
    const unsigned dst = ops_[std::min<Addr>(pc_, ops_.size() - 1)].dst;
    TraceRecord t;
    if (!execute<true>(1, &t)) {
        rec.pc = rec.npc = pc_;
        rec.halted = true;
        return false;
    }
    rec.pc = t.pc;
    rec.npc = t.npc;
    rec.isMem = t.isMem;
    rec.effAddr = t.effAddr;
    // Call writes ra as a side effect of the window shift, not as a
    // result, so it reports no destination.
    if (si.hasDest && !si.isCall) {
        rec.hasDest = true;
        rec.dest = si.dest;
        rec.destValue = regs_[dst];
    }
    return true;
}

FuncSimStats
FuncSim::run(InstCount maxInsts)
{
    if (!halted_)
        execute<false>(maxInsts, nullptr);
    return stats_;
}

InstCount
FuncSim::trace(InstCount maxInsts, TraceRecord *out)
{
    return halted_ ? 0 : execute<true>(maxInsts, out);
}

// Every opcode in enum order: the threaded-dispatch table in execute()
// is built from this list, and the static_assert keeps the two in step.
#define VCA_OPCODES(X)                                                  \
    X(Nop) X(Halt)                                                      \
    X(Add) X(Sub) X(Mul) X(Div) X(And) X(Or) X(Xor) X(Sll) X(Srl)       \
    X(Sra) X(Slt) X(Sltu)                                               \
    X(Addi) X(Andi) X(Ori) X(Xori) X(Slli) X(Srli) X(Srai) X(Slti)      \
    X(Lui)                                                              \
    X(Ld) X(St) X(Fld) X(Fst)                                           \
    X(Fadd) X(Fsub) X(Fmul) X(Fdiv) X(Fneg) X(Fmov) X(Fcvtif)           \
    X(Fcvtfi) X(Feq) X(Flt)                                             \
    X(Beq) X(Bne) X(Blt) X(Bge) X(Jmp) X(Call) X(Ret)

namespace {

#define VCA_OPCODE_VALUE(OPC) Opcode::OPC,
constexpr Opcode kOpcodeOrder[] = {VCA_OPCODES(VCA_OPCODE_VALUE)};
#undef VCA_OPCODE_VALUE

constexpr bool
listsEveryOpcodeInOrder()
{
    if (std::size(kOpcodeOrder) != std::size_t(Opcode::NumOpcodes))
        return false;
    for (std::size_t i = 0; i < std::size(kOpcodeOrder); ++i)
        if (kOpcodeOrder[i] != Opcode(i))
            return false;
    return true;
}
static_assert(listsEveryOpcodeInOrder(),
              "VCA_OPCODES must list every opcode in enum order");

} // namespace

// The end of every straight-run handler: record the op in trace mode,
// then jump straight to the next op's handler, or leave the run. The
// handlers' tails are otherwise identical, and GCC cross-jumps
// identical tails into one shared indirect jump, which predicts worse;
// the empty asm, whose operand differs per handler (__COUNTER__),
// keeps one jump per handler.
#define VCA_NEXT(IS_MEM, EA)                                            \
    if constexpr (Trace) {                                              \
        const Addr opPc = static_cast<Addr>(o - ops);                   \
        *out++ = TraceRecord{opPc, opPc + 1, IS_MEM, EA};               \
    }                                                                   \
    if (++o == end)                                                     \
        goto runDone;                                                   \
    asm volatile("" : : "i"(__COUNTER__));                              \
    goto *handler[static_cast<unsigned>(o->op)];

// One handler per ALU/FP opcode, so each inlines only its own
// arithmetic.
#define VCA_ALU_OP(OPC)                                                 \
  op_##OPC:                                                             \
    set(o->dst, isa::aluResult(Opcode::OPC, r[o->src0], r[o->src1],     \
                               o->imm));                                \
    VCA_NEXT(false, 0)

#define VCA_BRANCH_CASE(OPC)                                            \
      case Opcode::OPC:                                                 \
        ++s.condBranches;                                               \
        if (isa::branchTaken(Opcode::OPC, r[o->src0], r[o->src1])) {    \
            ++s.takenCondBranches;                                      \
            npc = pc + 1 + o->imm;                                      \
        }                                                               \
        break;

template <bool Trace>
InstCount
FuncSim::execute(InstCount maxInsts, TraceRecord *out)
{
    // Straight-run handlers indexed by opcode (GCC/Clang labels as
    // values). A control op or Halt ends a run, so its entry panics.
#define VCA_HANDLER_ADDRESS(OPC) &&op_##OPC,
    static const void *const handler[] = {VCA_OPCODES(VCA_HANDLER_ADDRESS)};
#undef VCA_HANDLER_ADDRESS

    // The loop state lives in locals; it goes back to the members, and
    // the written frame slots to memory, on the way out.
    std::uint64_t *const r = regs_;
    const Op *const ops = ops_.data();
    const Addr haltPc = ops_.size() - 1;
    Addr pc = pc_;
    unsigned depth = depth_;
    FuncSimStats s = stats_;
    std::uint64_t dirty = 0; ///< frame slots written since last stored
    InstCount left = maxInsts;

    const auto set = [&](unsigned slot, std::uint64_t value) {
        r[slot] = value;
        if (slot < isa::windowSlots)
            dirty |= std::uint64_t(1) << slot;
    };
    const auto syncFrame = [&] {
        storeFrame(dirty);
        dirty = 0;
    };
    const auto moveWindow = [&](Addr wbp) {
        syncFrame();
        wbp_ = wbp;
        loadFrame();
    };
    const auto finish = [&] {
        syncFrame();
        pc_ = pc;
        depth_ = depth;
        s.insts += maxInsts - left;
        stats_ = s;
        return maxInsts - left;
    };

    while (left) {
        // Only a control transfer can leave the image, so the clamp is
        // once per run: every pc inside a run is on the image.
        const Op *o = ops + std::min(pc, haltPc);
        if (o->run) {
            const InstCount n = std::min<InstCount>(o->run, left);
            const Op *const end = o + n;
            goto *handler[static_cast<unsigned>(o->op)];

          op_Nop:
            VCA_NEXT(false, 0)

          VCA_ALU_OP(Add) VCA_ALU_OP(Sub) VCA_ALU_OP(Mul) VCA_ALU_OP(Div)
          VCA_ALU_OP(And) VCA_ALU_OP(Or) VCA_ALU_OP(Xor) VCA_ALU_OP(Sll)
          VCA_ALU_OP(Srl) VCA_ALU_OP(Sra) VCA_ALU_OP(Slt) VCA_ALU_OP(Sltu)
          VCA_ALU_OP(Addi) VCA_ALU_OP(Andi) VCA_ALU_OP(Ori)
          VCA_ALU_OP(Xori) VCA_ALU_OP(Slli) VCA_ALU_OP(Srli)
          VCA_ALU_OP(Srai) VCA_ALU_OP(Slti) VCA_ALU_OP(Lui)
          VCA_ALU_OP(Fadd) VCA_ALU_OP(Fsub) VCA_ALU_OP(Fmul)
          VCA_ALU_OP(Fdiv) VCA_ALU_OP(Fneg) VCA_ALU_OP(Fmov)
          VCA_ALU_OP(Fcvtif) VCA_ALU_OP(Fcvtfi) VCA_ALU_OP(Feq)
          VCA_ALU_OP(Flt)

          op_Ld:
          op_Fld: {
            const Addr ea = (r[o->src0] + o->imm) & ~Addr(7);
            // The load may read a register-space word the frame cache
            // holds newer than memory.
            if (ea >= layout::regSpaceBase)
                syncFrame();
            set(o->dst, mem_.read(ea));
            ++s.loads;
            VCA_NEXT(true, ea)
          }
          op_St:
          op_Fst: {
            const Addr ea = (r[o->src0] + o->imm) & ~Addr(7);
            const std::uint64_t data = r[o->src1];
            if (ea >= layout::regSpaceBase) {
                syncFrame();
                const Addr off = ea - wbp_;
                if (windowed_ && off < layout::windowFrameBytes)
                    r[off / layout::regSlotBytes] = data;
            }
            mem_.write(ea, data);
            ++s.stores;
            VCA_NEXT(true, ea)
          }

          op_Halt: op_Beq: op_Bne: op_Blt: op_Bge: op_Jmp: op_Call:
          op_Ret:
            panic("FuncSim: unhandled opcode");

          runDone:
            pc += n;
            left -= n;
            if (!left)
                break;
        }

        // o ends the run: a control op or Halt.
        Addr npc = pc + 1;

        switch (o->op) {
          case Opcode::Halt:
            halted_ = true;
            return finish();

          VCA_BRANCH_CASE(Beq) VCA_BRANCH_CASE(Bne)
          VCA_BRANCH_CASE(Blt) VCA_BRANCH_CASE(Bge)

          case Opcode::Jmp:
            npc = static_cast<Addr>(o->imm);
            break;

          case Opcode::Call:
            ++s.calls;
            ++depth;
            s.maxCallDepth = std::max(s.maxCallDepth, depth);
            if (windowed_)
                moveWindow(wbp_ - layout::windowFrameBytes);
            // ra is written in the callee's context.
            set(o->dst, pc + 1);
            npc = static_cast<Addr>(o->imm);
            break;
          case Opcode::Ret:
            // ra is read in the callee's (current) context.
            npc = r[o->src0];
            if (windowed_)
                moveWindow(wbp_ + layout::windowFrameBytes);
            if (depth > 0)
                --depth;
            break;

          default:
            panic("FuncSim: unhandled opcode");
        }

        if constexpr (Trace)
            *out++ = TraceRecord{pc, npc, false, 0};
        pc = npc;
        --left;
    }
    return finish();
}

#undef VCA_OPCODES
#undef VCA_NEXT
#undef VCA_ALU_OP
#undef VCA_BRANCH_CASE

ArchState
FuncSim::captureState() const
{
    ArchState s;
    s.pc = pc_;
    s.windowedAbi = windowed_;
    s.callDepth = depth_;
    s.windowBase = wbp_;
    for (unsigned i = 0; i < isa::numIntRegs; ++i)
        s.intRegs[i] = readReg(RegClass::Int, static_cast<RegIndex>(i));
    for (unsigned i = 0; i < isa::numFloatRegs; ++i)
        s.fpRegs[i] = readReg(RegClass::Float, static_cast<RegIndex>(i));
    return s;
}

} // namespace vca::func
