/**
 * @file
 * VRISC-64 operation semantics shared by every model that executes
 * instructions: the functional engine (func/func_sim.cc) and the
 * detailed core's execute stage (cpu/ooo_cpu.cc). One definition per
 * opcode keeps the two models from drifting apart.
 */

#ifndef VCA_ISA_SEMANTICS_HH
#define VCA_ISA_SEMANTICS_HH

#include <bit>
#include <cstdint>
#include <limits>

#include "isa/inst.hh"
#include "sim/logging.hh"

namespace vca::isa {

/**
 * Canonicalize FP results: VRISC-64 defines every NaN result as the
 * canonical quiet NaN. (Hardware NaN payload propagation depends on
 * operand order, which compilers are free to commute, so two
 * separately compiled interpreters would otherwise disagree.)
 */
inline std::uint64_t
canonFp(double d)
{
    if (d != d)
        return 0x7ff8000000000000ULL;
    return std::bit_cast<std::uint64_t>(d);
}

/** Signed division with the usual simulator-safe edge cases. */
inline std::int64_t
safeDiv(std::int64_t a, std::int64_t b)
{
    if (b == 0)
        return 0;
    if (a == std::numeric_limits<std::int64_t>::min() && b == -1)
        return a;
    return a / b;
}

/** Fcvtfi: saturating, NaN-safe double to int64 conversion. */
inline std::int64_t
fcvtfi(double d)
{
    if (d != d)
        return 0;
    if (d >= 9.2233720368547758e18)
        return std::numeric_limits<std::int64_t>::max();
    if (d <= -9.2233720368547758e18)
        return std::numeric_limits<std::int64_t>::min();
    return static_cast<std::int64_t>(d);
}

/**
 * Result of a register-writing ALU or FP operation from its operand
 * values @p a, @p b (raw bits; FP operands are IEEE doubles) and its
 * immediate. Memory, control, Nop and Halt are not ALU operations.
 * Always inlined, so a caller passing a constant opcode gets just that
 * opcode's arithmetic.
 */
[[gnu::always_inline]] inline std::uint64_t
aluResult(Opcode op, std::uint64_t a, std::uint64_t b, std::int64_t imm)
{
    const auto sa = static_cast<std::int64_t>(a);
    const auto d = [](std::uint64_t bits) {
        return std::bit_cast<double>(bits);
    };
    switch (op) {
      case Opcode::Add:  return a + b;
      case Opcode::Sub:  return a - b;
      // Unsigned, so an overflowing product wraps instead of being
      // undefined; the low 64 bits equal the signed product's.
      case Opcode::Mul:  return a * b;
      case Opcode::Div:
        return static_cast<std::uint64_t>(
            safeDiv(sa, static_cast<std::int64_t>(b)));
      case Opcode::And:  return a & b;
      case Opcode::Or:   return a | b;
      case Opcode::Xor:  return a ^ b;
      case Opcode::Sll:  return a << (b & 63);
      case Opcode::Srl:  return a >> (b & 63);
      case Opcode::Sra:
        return static_cast<std::uint64_t>(sa >> (b & 63));
      case Opcode::Slt:  return sa < static_cast<std::int64_t>(b);
      case Opcode::Sltu: return a < b;

      case Opcode::Addi: return a + imm;
      case Opcode::Andi: return a & imm;
      case Opcode::Ori:  return a | imm;
      case Opcode::Xori: return a ^ imm;
      case Opcode::Slli: return a << (imm & 63);
      case Opcode::Srli: return a >> (imm & 63);
      case Opcode::Srai: return static_cast<std::uint64_t>(sa >> (imm & 63));
      case Opcode::Slti: return sa < imm;
      case Opcode::Lui:  return static_cast<std::uint64_t>(imm);

      case Opcode::Fadd: return canonFp(d(a) + d(b));
      case Opcode::Fsub: return canonFp(d(a) - d(b));
      case Opcode::Fmul: return canonFp(d(a) * d(b));
      case Opcode::Fdiv:
        return canonFp(d(b) == 0.0 ? 0.0 : d(a) / d(b));
      case Opcode::Fneg: return canonFp(-d(a));
      case Opcode::Fmov: return a;
      case Opcode::Fcvtif:
        return std::bit_cast<std::uint64_t>(static_cast<double>(sa));
      case Opcode::Fcvtfi:
        return static_cast<std::uint64_t>(fcvtfi(d(a)));
      case Opcode::Feq:  return d(a) == d(b);
      case Opcode::Flt:  return d(a) < d(b);

      default:
        panic("aluResult: opcode %u is not an ALU operation",
              unsigned(op));
    }
}

/** Whether conditional branch @p op is taken on operands @p a, @p b. */
[[gnu::always_inline]] inline bool
branchTaken(Opcode op, std::uint64_t a, std::uint64_t b)
{
    const auto sa = static_cast<std::int64_t>(a);
    const auto sb = static_cast<std::int64_t>(b);
    switch (op) {
      case Opcode::Beq: return sa == sb;
      case Opcode::Bne: return sa != sb;
      case Opcode::Blt: return sa < sb;
      case Opcode::Bge: return sa >= sb;
      default:
        panic("branchTaken: opcode %u is not a conditional branch",
              unsigned(op));
    }
}

} // namespace vca::isa

#endif // VCA_ISA_SEMANTICS_HH
