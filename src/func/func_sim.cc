#include "func/func_sim.hh"

#include <bit>

#include "sim/logging.hh"

namespace vca::func {

using isa::Opcode;
using isa::RegClass;
namespace layout = isa::layout;

namespace {

double
asDouble(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

std::uint64_t
asBits(double d)
{
    return std::bit_cast<std::uint64_t>(d);
}

/**
 * Canonicalize FP results: VRISC-64 defines every NaN result as the
 * canonical quiet NaN. (Hardware NaN payload propagation depends on
 * operand order, which compilers are free to commute, so two
 * separately compiled interpreters would otherwise disagree.)
 */
std::uint64_t
canonFp(double d)
{
    if (d != d)
        return 0x7ff8000000000000ULL;
    return std::bit_cast<std::uint64_t>(d);
}


/** Signed division with the usual simulator-safe edge cases. */
std::int64_t
safeDiv(std::int64_t a, std::int64_t b)
{
    if (b == 0)
        return 0;
    if (a == std::numeric_limits<std::int64_t>::min() && b == -1)
        return a;
    return a / b;
}

} // namespace

void
loadProgramData(const isa::Program &prog, mem::SparseMemory &memory)
{
    for (const isa::DataSegment &seg : prog.data) {
        Addr addr = seg.base;
        for (std::uint64_t word : seg.words) {
            if (word != 0)
                memory.write(addr, word);
            addr += 8;
        }
    }
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
}

std::uint64_t
FuncSim::readReg(RegClass cls, RegIndex idx) const
{
    if (cls == RegClass::Int && idx == isa::regZero)
        return 0;
    if (windowed_ && isa::isWindowed(cls, idx))
        return mem_.read(wbp_ + isa::windowSlot(cls, idx) * 8);
    return cls == RegClass::Int ? intRegs_[idx] : fpRegs_[idx];
}

void
FuncSim::writeReg(RegClass cls, RegIndex idx, std::uint64_t value)
{
    if (cls == RegClass::Int && idx == isa::regZero)
        return;
    if (windowed_ && isa::isWindowed(cls, idx)) {
        mem_.write(wbp_ + isa::windowSlot(cls, idx) * 8, value);
        return;
    }
    if (cls == RegClass::Int)
        intRegs_[idx] = value;
    else
        fpRegs_[idx] = value;
}

std::uint64_t
FuncSim::readIntReg(RegIndex idx) const
{
    return readReg(RegClass::Int, idx);
}

double
FuncSim::readFloatReg(RegIndex idx) const
{
    return asDouble(readReg(RegClass::Float, idx));
}

void
FuncSim::writeIntReg(RegIndex idx, std::uint64_t value)
{
    writeReg(RegClass::Int, idx, value);
}

bool
FuncSim::step(StepRecord &rec)
{
    rec = StepRecord{};
    if (halted_) {
        rec.halted = true;
        return false;
    }
    return execInst<true>(prog_.inst(pc_), &rec);
}

template <bool Record>
bool
FuncSim::execInst(const isa::StaticInst &si, StepRecord *rec)
{
    if constexpr (Record)
        rec->pc = pc_;
    Addr npc = pc_ + 1;

    const auto opnd = [&](unsigned i) -> std::uint64_t {
        if (i >= si.numSrcs || !si.srcValid[i])
            return 0;
        return readReg(si.src[i].cls, si.src[i].idx);
    };

    std::uint64_t result = 0;
    bool wrote = false;

    switch (si.op) {
      case Opcode::Nop:
        break;
      case Opcode::Halt:
        halted_ = true;
        if constexpr (Record) {
            rec->halted = true;
            rec->npc = pc_;
        }
        return false;

      case Opcode::Add:  result = opnd(0) + opnd(1); wrote = true; break;
      case Opcode::Sub:  result = opnd(0) - opnd(1); wrote = true; break;
      // Unsigned, so an overflowing product wraps instead of being
      // undefined; the low 64 bits equal the signed product's.
      case Opcode::Mul:  result = opnd(0) * opnd(1); wrote = true; break;
      case Opcode::Div:
        result = static_cast<std::uint64_t>(
            safeDiv(static_cast<std::int64_t>(opnd(0)),
                    static_cast<std::int64_t>(opnd(1))));
        wrote = true;
        break;
      case Opcode::And:  result = opnd(0) & opnd(1); wrote = true; break;
      case Opcode::Or:   result = opnd(0) | opnd(1); wrote = true; break;
      case Opcode::Xor:  result = opnd(0) ^ opnd(1); wrote = true; break;
      case Opcode::Sll:  result = opnd(0) << (opnd(1) & 63); wrote = true;
        break;
      case Opcode::Srl:  result = opnd(0) >> (opnd(1) & 63); wrote = true;
        break;
      case Opcode::Sra:
        result = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(opnd(0)) >> (opnd(1) & 63));
        wrote = true;
        break;
      case Opcode::Slt:
        result = static_cast<std::int64_t>(opnd(0)) <
                 static_cast<std::int64_t>(opnd(1));
        wrote = true;
        break;
      case Opcode::Sltu: result = opnd(0) < opnd(1); wrote = true; break;

      case Opcode::Addi: result = opnd(0) + si.imm; wrote = true; break;
      case Opcode::Andi: result = opnd(0) & si.imm; wrote = true; break;
      case Opcode::Ori:  result = opnd(0) | si.imm; wrote = true; break;
      case Opcode::Xori: result = opnd(0) ^ si.imm; wrote = true; break;
      case Opcode::Slli: result = opnd(0) << (si.imm & 63); wrote = true;
        break;
      case Opcode::Srli: result = opnd(0) >> (si.imm & 63); wrote = true;
        break;
      case Opcode::Srai:
        result = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(opnd(0)) >> (si.imm & 63));
        wrote = true;
        break;
      case Opcode::Slti:
        result = static_cast<std::int64_t>(opnd(0)) < si.imm;
        wrote = true;
        break;
      case Opcode::Lui:
        result = static_cast<std::uint64_t>(si.imm);
        wrote = true;
        break;

      case Opcode::Ld: case Opcode::Fld: {
        const Addr ea = (opnd(0) + si.imm) & ~Addr(7);
        result = mem_.read(ea);
        wrote = true;
        if constexpr (Record) {
            rec->isMem = true;
            rec->effAddr = ea;
        }
        ++stats_.loads;
        break;
      }
      case Opcode::St: case Opcode::Fst: {
        const std::uint64_t base = opnd(0);
        const std::uint64_t data = opnd(1);
        const Addr ea = (base + si.imm) & ~Addr(7);
        mem_.write(ea, data);
        if constexpr (Record) {
            rec->isMem = true;
            rec->effAddr = ea;
        }
        ++stats_.stores;
        break;
      }

      case Opcode::Fadd:
        result = canonFp(asDouble(opnd(0)) + asDouble(opnd(1)));
        wrote = true;
        break;
      case Opcode::Fsub:
        result = canonFp(asDouble(opnd(0)) - asDouble(opnd(1)));
        wrote = true;
        break;
      case Opcode::Fmul:
        result = canonFp(asDouble(opnd(0)) * asDouble(opnd(1)));
        wrote = true;
        break;
      case Opcode::Fdiv: {
        const double b = asDouble(opnd(1));
        result = canonFp(b == 0.0 ? 0.0 : asDouble(opnd(0)) / b);
        wrote = true;
        break;
      }
      case Opcode::Fneg:
        result = canonFp(-asDouble(opnd(0)));
        wrote = true;
        break;
      case Opcode::Fmov:
        result = opnd(0);
        wrote = true;
        break;
      case Opcode::Fcvtif:
        result = asBits(static_cast<double>(
            static_cast<std::int64_t>(opnd(0))));
        wrote = true;
        break;
      case Opcode::Fcvtfi: {
        const double d = asDouble(opnd(0));
        // Saturating, NaN-safe conversion.
        std::int64_t v = 0;
        if (d == d) {
            if (d >= 9.2233720368547758e18)
                v = std::numeric_limits<std::int64_t>::max();
            else if (d <= -9.2233720368547758e18)
                v = std::numeric_limits<std::int64_t>::min();
            else
                v = static_cast<std::int64_t>(d);
        }
        result = static_cast<std::uint64_t>(v);
        wrote = true;
        break;
      }
      case Opcode::Feq:
        result = asDouble(opnd(0)) == asDouble(opnd(1));
        wrote = true;
        break;
      case Opcode::Flt:
        result = asDouble(opnd(0)) < asDouble(opnd(1));
        wrote = true;
        break;

      case Opcode::Beq: case Opcode::Bne:
      case Opcode::Blt: case Opcode::Bge: {
        const auto a = static_cast<std::int64_t>(opnd(0));
        const auto b = static_cast<std::int64_t>(opnd(1));
        bool taken = false;
        switch (si.op) {
          case Opcode::Beq: taken = a == b; break;
          case Opcode::Bne: taken = a != b; break;
          case Opcode::Blt: taken = a < b; break;
          default:          taken = a >= b; break;
        }
        ++stats_.condBranches;
        if (taken) {
            ++stats_.takenCondBranches;
            npc = pc_ + 1 + si.imm;
        }
        break;
      }

      case Opcode::Jmp:
        npc = static_cast<Addr>(si.imm);
        break;

      case Opcode::Call: {
        ++stats_.calls;
        ++depth_;
        stats_.maxCallDepth = std::max(stats_.maxCallDepth, depth_);
        if (windowed_)
            wbp_ -= layout::windowFrameBytes;
        // ra is written in the callee's context.
        writeReg(RegClass::Int, isa::regRa, pc_ + 1);
        npc = static_cast<Addr>(si.imm);
        break;
      }
      case Opcode::Ret: {
        // ra is read in the callee's (current) context.
        npc = static_cast<Addr>(readReg(RegClass::Int, isa::regRa));
        if (windowed_)
            wbp_ += layout::windowFrameBytes;
        if (depth_ > 0)
            --depth_;
        break;
      }

      default:
        panic("FuncSim: unhandled opcode");
    }

    if (wrote && si.hasDest) {
        writeReg(si.dest.cls, si.dest.idx, result);
        if constexpr (Record) {
            rec->hasDest = true;
            rec->dest = si.dest;
            rec->destValue = result;
        }
    }

    pc_ = npc;
    if constexpr (Record)
        rec->npc = npc;
    ++stats_.insts;
    return true;
}

FuncSimStats
FuncSim::run(InstCount maxInsts)
{
    StepRecord rec;
    const InstCount start = stats_.insts;
    while (!halted_ && stats_.insts - start < maxInsts)
        step(rec);
    return stats_;
}

FuncSimStats
FuncSim::runFast(InstCount maxInsts)
{
    if (!bbCache_)
        bbCache_ = std::make_unique<isa::BbCache>(prog_);
    const InstCount start = stats_.insts;
    while (!halted_) {
        const InstCount done = stats_.insts - start;
        if (done >= maxInsts)
            break;
        const isa::BasicBlock &bb = bbCache_->blockAt(pc_);
        // Only the final instruction of a block can redirect, so the
        // body is a straight pointer walk over the decoded image. A
        // truncated walk leaves pc_ mid-block; the next lookup simply
        // discovers the sub-block starting there.
        std::uint32_t n = bb.length;
        const InstCount remaining = maxInsts - done;
        if (n > remaining)
            n = static_cast<std::uint32_t>(remaining);
        const isa::StaticInst *ip = &prog_.inst(bb.startPc);
        for (std::uint32_t i = 0; i < n; ++i) {
            if (!execInst<false>(ip[i], nullptr))
                return stats_;
        }
    }
    return stats_;
}

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

void
FuncSim::refreshFrameCache()
{
}

} // namespace vca::func
