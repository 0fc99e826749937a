#include "func/func_sim.hh"

#include <algorithm>
#include <bit>

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

// One case per ALU/FP opcode, so each inlines only its own arithmetic.
#define VCA_ALU_CASE(OPC)                                               \
      case Opcode::OPC:                                                 \
        set(o.dst, isa::aluResult(Opcode::OPC, r[o.src0], r[o.src1],    \
                                  o.imm));                              \
        break;

#define VCA_BRANCH_CASE(OPC)                                            \
      case Opcode::OPC:                                                 \
        ++s.condBranches;                                               \
        if (isa::branchTaken(Opcode::OPC, r[o.src0], r[o.src1])) {      \
            ++s.takenCondBranches;                                      \
            npc = pc + 1 + o.imm;                                       \
        }                                                               \
        break;

template <bool Trace>
InstCount
FuncSim::execute(InstCount maxInsts, TraceRecord *out)
{
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

    for (; left; --left) {
        const Op &o = ops[std::min(pc, haltPc)];
        if constexpr (Trace) {
            out->pc = pc;
            out->isMem = false;
            out->effAddr = 0;
        }
        Addr npc = pc + 1;

        switch (o.op) {
          case Opcode::Nop:
            break;
          case Opcode::Halt:
            halted_ = true;
            return finish();

          VCA_ALU_CASE(Add) VCA_ALU_CASE(Sub) VCA_ALU_CASE(Mul)
          VCA_ALU_CASE(Div) VCA_ALU_CASE(And) VCA_ALU_CASE(Or)
          VCA_ALU_CASE(Xor) VCA_ALU_CASE(Sll) VCA_ALU_CASE(Srl)
          VCA_ALU_CASE(Sra) VCA_ALU_CASE(Slt) VCA_ALU_CASE(Sltu)
          VCA_ALU_CASE(Addi) VCA_ALU_CASE(Andi) VCA_ALU_CASE(Ori)
          VCA_ALU_CASE(Xori) VCA_ALU_CASE(Slli) VCA_ALU_CASE(Srli)
          VCA_ALU_CASE(Srai) VCA_ALU_CASE(Slti) VCA_ALU_CASE(Lui)
          VCA_ALU_CASE(Fadd) VCA_ALU_CASE(Fsub) VCA_ALU_CASE(Fmul)
          VCA_ALU_CASE(Fdiv) VCA_ALU_CASE(Fneg) VCA_ALU_CASE(Fmov)
          VCA_ALU_CASE(Fcvtif) VCA_ALU_CASE(Fcvtfi)
          VCA_ALU_CASE(Feq) VCA_ALU_CASE(Flt)

          case Opcode::Ld: case Opcode::Fld: {
            const Addr ea = (r[o.src0] + o.imm) & ~Addr(7);
            // The load may read a register-space word the frame cache
            // holds newer than memory.
            if (ea >= layout::regSpaceBase)
                syncFrame();
            set(o.dst, mem_.read(ea));
            ++s.loads;
            if constexpr (Trace) {
                out->isMem = true;
                out->effAddr = ea;
            }
            break;
          }
          case Opcode::St: case Opcode::Fst: {
            const Addr ea = (r[o.src0] + o.imm) & ~Addr(7);
            const std::uint64_t data = r[o.src1];
            if (ea >= layout::regSpaceBase) {
                syncFrame();
                const Addr off = ea - wbp_;
                if (windowed_ && off < layout::windowFrameBytes)
                    r[off / layout::regSlotBytes] = data;
            }
            mem_.write(ea, data);
            ++s.stores;
            if constexpr (Trace) {
                out->isMem = true;
                out->effAddr = ea;
            }
            break;
          }

          VCA_BRANCH_CASE(Beq) VCA_BRANCH_CASE(Bne)
          VCA_BRANCH_CASE(Blt) VCA_BRANCH_CASE(Bge)

          case Opcode::Jmp:
            npc = static_cast<Addr>(o.imm);
            break;

          case Opcode::Call:
            ++s.calls;
            ++depth;
            s.maxCallDepth = std::max(s.maxCallDepth, depth);
            if (windowed_)
                moveWindow(wbp_ - layout::windowFrameBytes);
            // ra is written in the callee's context.
            set(o.dst, pc + 1);
            npc = static_cast<Addr>(o.imm);
            break;
          case Opcode::Ret:
            // ra is read in the callee's (current) context.
            npc = r[o.src0];
            if (windowed_)
                moveWindow(wbp_ + layout::windowFrameBytes);
            if (depth > 0)
                --depth;
            break;

          default:
            panic("FuncSim: unhandled opcode");
        }

        pc = npc;
        if constexpr (Trace) {
            out->npc = npc;
            ++out;
        }
    }
    return finish();
}

#undef VCA_ALU_CASE
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
