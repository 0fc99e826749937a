/**
 * @file
 * Unit tests for the functional simulator: instruction semantics, the
 * windowed ABI (window shifting, cross-window isolation, deep
 * recursion), hand-written program execution, and the engine's
 * properties: the frame cache stays coherent with the memory image,
 * run() in any chunking equals single steps, and a budget or branch
 * target at any point of a straight run (the block the engine executes
 * between control ops) gives what single steps give.
 */

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <string>
#include <vector>

#include "func/func_sim.hh"
#include "isa/program.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "wload/asm_builder.hh"
#include "wload/generator.hh"
#include "wload/profile.hh"

namespace {

using namespace vca;
using namespace vca::isa;
using vca::wload::AsmBuilder;

isa::Program
makeProgram(AsmBuilder &b, bool windowed = false)
{
    isa::Program p;
    p.name = "test";
    p.windowedAbi = windowed;
    p.code = b.seal();
    p.finalize();
    return p;
}

func::FuncSimStats
runToHalt(const isa::Program &p, mem::SparseMemory &m,
          std::uint64_t *r5Out = nullptr)
{
    func::FuncSim sim(p, m);
    const auto stats = sim.run(1'000'000);
    EXPECT_TRUE(sim.halted()) << "program did not halt";
    if (r5Out)
        *r5Out = sim.readIntReg(5);
    return stats;
}

TEST(FuncSim, BasicArithmetic)
{
    AsmBuilder b;
    b.addi(4, regZero, 20);
    b.addi(5, regZero, 22);
    b.emitR(Opcode::Add, 5, 4, 5);
    b.halt();
    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    const auto stats = runToHalt(makeProgram(b), m, &r5);
    EXPECT_EQ(r5, 42u);
    EXPECT_EQ(stats.insts, 3u);
}

TEST(FuncSim, SubWithZeroFirstOperand)
{
    // r5 = r0 - r4 must be -7, not 7 (positional operands).
    AsmBuilder b;
    b.addi(4, regZero, 7);
    b.emitR(Opcode::Sub, 5, regZero, 4);
    b.halt();
    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    runToHalt(makeProgram(b), m, &r5);
    EXPECT_EQ(static_cast<std::int64_t>(r5), -7);
}

TEST(FuncSim, DivisionEdgeCases)
{
    AsmBuilder b;
    b.addi(4, regZero, 10);
    b.emitR(Opcode::Div, 5, 4, regZero); // div by zero -> 0
    b.halt();
    mem::SparseMemory m;
    std::uint64_t r5 = 1;
    runToHalt(makeProgram(b), m, &r5);
    EXPECT_EQ(r5, 0u);
}

TEST(FuncSim, LoadStoreRoundTrip)
{
    AsmBuilder b;
    b.li(2, 0x2000'0000);
    b.addi(10, regZero, 1234);
    b.st(2, 10, 16);
    b.ld(5, 2, 16);
    b.halt();
    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    const auto stats = runToHalt(makeProgram(b), m, &r5);
    EXPECT_EQ(r5, 1234u);
    EXPECT_EQ(stats.loads, 1u);
    EXPECT_EQ(stats.stores, 1u);
}

TEST(FuncSim, FloatingPoint)
{
    AsmBuilder b;
    b.addi(4, regZero, 3);
    b.emitR(Opcode::Fcvtif, 8, 4, regZero);  // f8 = 3.0
    b.emitR(Opcode::Fmul, 9, 8, 8);          // f9 = 9.0
    b.emitR(Opcode::Fadd, 9, 9, 8);          // f9 = 12.0
    b.emitR(Opcode::Fcvtfi, 5, 9, regZero);  // r5 = 12
    b.halt();
    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    runToHalt(makeProgram(b), m, &r5);
    EXPECT_EQ(r5, 12u);
}

TEST(FuncSim, BranchTakenAndNotTaken)
{
    AsmBuilder b;
    b.addi(4, regZero, 1);
    auto skip = b.newLabel();
    b.branch(Opcode::Bne, 4, regZero, skip); // taken
    b.addi(5, regZero, 111);                 // skipped
    b.bind(skip);
    b.addi(6, regZero, 7);
    auto skip2 = b.newLabel();
    b.branch(Opcode::Beq, 4, regZero, skip2); // not taken
    b.addi(5, regZero, 42);
    b.bind(skip2);
    b.halt();
    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    const auto stats = runToHalt(makeProgram(b), m, &r5);
    EXPECT_EQ(r5, 42u);
    EXPECT_EQ(stats.condBranches, 2u);
    EXPECT_EQ(stats.takenCondBranches, 1u);
}

TEST(FuncSim, LoopSum)
{
    // Sum 1..10 into r5.
    AsmBuilder b;
    b.addi(13, regZero, 10);
    b.addi(5, regZero, 0);
    auto top = b.newLabel();
    b.bind(top);
    b.emitR(Opcode::Add, 5, 5, 13);
    b.addi(13, 13, -1);
    b.branch(Opcode::Bne, 13, regZero, top);
    b.halt();
    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    runToHalt(makeProgram(b), m, &r5);
    EXPECT_EQ(r5, 55u);
}

TEST(FuncSim, CallAndReturnNonWindowed)
{
    AsmBuilder b;
    auto fn = b.newLabel();
    b.addi(4, regZero, 20);
    b.call(fn);
    b.mov(5, 4);
    b.halt();
    b.bind(fn);
    b.addi(4, 4, 22);
    b.ret();
    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    const auto stats = runToHalt(makeProgram(b, false), m, &r5);
    EXPECT_EQ(r5, 42u);
    EXPECT_EQ(stats.calls, 1u);
}

TEST(FuncSim, WindowedCallIsolatesWindowedRegisters)
{
    // Caller's r10 must survive a callee that clobbers r10, with NO
    // save/restore code, under the windowed ABI.
    AsmBuilder b;
    auto fn = b.newLabel();
    b.addi(10, regZero, 1111);
    b.call(fn);
    b.mov(5, 10);
    b.halt();
    b.bind(fn);
    b.addi(10, regZero, 2222); // clobber (own window)
    b.ret();
    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    runToHalt(makeProgram(b, true), m, &r5);
    EXPECT_EQ(r5, 1111u);
}

TEST(FuncSim, NonWindowedCallDoesNotIsolate)
{
    // Same program, non-windowed ABI: the clobber is visible.
    AsmBuilder b;
    auto fn = b.newLabel();
    b.addi(10, regZero, 1111);
    b.call(fn);
    b.mov(5, 10);
    b.halt();
    b.bind(fn);
    b.addi(10, regZero, 2222);
    b.ret();
    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    runToHalt(makeProgram(b, false), m, &r5);
    EXPECT_EQ(r5, 2222u);
}

TEST(FuncSim, WindowedGlobalsAreShared)
{
    // Globals (argument registers) pass values through calls.
    AsmBuilder b;
    auto fn = b.newLabel();
    b.addi(4, regZero, 40);
    b.call(fn);
    b.mov(5, 4);
    b.halt();
    b.bind(fn);
    b.addi(4, 4, 2);
    b.ret();
    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    runToHalt(makeProgram(b, true), m, &r5);
    EXPECT_EQ(r5, 42u);
}

TEST(FuncSim, WindowedDeepRecursionFibonacci)
{
    // fib(n) with per-frame locals in windowed registers, no explicit
    // saves: exercises many live windows at once.
    AsmBuilder b;
    auto fib = b.newLabel();
    b.addi(4, regZero, 12); // a0 = 12
    b.call(fib);
    b.mov(5, 4);
    b.halt();

    b.bind(fib);
    auto recurse = b.newLabel();
    auto done = b.newLabel();
    b.addi(10, regZero, 2);
    b.branch(Opcode::Bge, 4, 10, recurse);
    b.jmp(done);               // fib(0)=0, fib(1)=1: a0 unchanged
    b.bind(recurse);
    b.mov(10, 4);              // save n in windowed local
    b.addi(4, 10, -1);
    b.call(fib);               // fib(n-1)
    b.mov(11, 4);              // windowed local
    b.addi(4, 10, -2);
    b.call(fib);               // fib(n-2)
    b.emitR(Opcode::Add, 4, 4, 11);
    b.bind(done);
    b.ret();

    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    const auto stats = runToHalt(makeProgram(b, true), m, &r5);
    EXPECT_EQ(r5, 144u); // fib(12)
    EXPECT_GT(stats.maxCallDepth, 8u);
}

TEST(FuncSim, WindowBasePointerMoves)
{
    AsmBuilder b;
    auto fn = b.newLabel();
    b.call(fn);
    b.halt();
    b.bind(fn);
    b.nop();
    b.ret();
    mem::SparseMemory m;
    isa::Program p = makeProgram(b, true);
    func::FuncSim sim(p, m);
    const Addr w0 = sim.windowBase();
    func::StepRecord rec;
    sim.step(rec); // call
    EXPECT_EQ(sim.windowBase(), w0 - layout::windowFrameBytes);
    sim.step(rec); // nop
    sim.step(rec); // ret
    EXPECT_EQ(sim.windowBase(), w0);
}

TEST(FuncSim, DataSegmentsLoaded)
{
    isa::Program p;
    p.name = "data";
    AsmBuilder b;
    b.li(2, 0x1000'0000);
    b.ld(5, 2, 8);
    b.halt();
    p.code = b.seal();
    p.data.push_back({0x1000'0000, {0, 777, 0}});
    p.finalize();
    mem::SparseMemory m;
    std::uint64_t r5 = 0;
    runToHalt(p, m, &r5);
    EXPECT_EQ(r5, 777u);
}

TEST(FuncSim, RunRespectsInstructionLimit)
{
    // Infinite loop.
    AsmBuilder b;
    auto top = b.newLabel();
    b.bind(top);
    b.addi(5, 5, 1);
    b.jmp(top);
    mem::SparseMemory m;
    isa::Program p = makeProgram(b);
    func::FuncSim sim(p, m);
    const auto stats = sim.run(1000);
    EXPECT_FALSE(sim.halted());
    EXPECT_EQ(stats.insts, 1000u);
}

TEST(FuncSim, CaptureStateReflectsArchitecturalRegisters)
{
    AsmBuilder b;
    b.addi(4, regZero, 20);
    b.addi(5, regZero, 22);
    b.emitR(Opcode::Add, 6, 4, 5);
    b.halt();
    mem::SparseMemory m;
    isa::Program p = makeProgram(b);
    func::FuncSim sim(p, m);
    func::StepRecord rec;
    sim.step(rec);
    sim.step(rec);
    sim.step(rec);

    const func::ArchState s = sim.captureState();
    EXPECT_EQ(s.pc, sim.pc());
    EXPECT_FALSE(s.windowedAbi);
    EXPECT_EQ(s.callDepth, 0u);
    for (RegIndex r = 0; r < isa::numIntRegs; ++r)
        EXPECT_EQ(s.intRegs[r], sim.readIntReg(r)) << "r" << unsigned(r);
    EXPECT_EQ(s.intRegs[6], 42u);
}

TEST(FuncSim, CaptureStateTracksWindowOnCallAndReturn)
{
    AsmBuilder b;
    auto fn = b.newLabel();
    b.addi(4, regZero, 7);
    b.call(fn);
    b.halt();
    b.bind(fn);
    b.addi(5, 4, 1); // callee sees a4 in the new window
    b.ret();
    mem::SparseMemory m;
    isa::Program p = makeProgram(b, true);
    func::FuncSim sim(p, m);
    func::StepRecord rec;
    sim.step(rec); // addi
    sim.step(rec); // call -> window shifts
    const func::ArchState in = sim.captureState();
    EXPECT_TRUE(in.windowedAbi);
    EXPECT_EQ(in.callDepth, 1u);
    EXPECT_EQ(in.windowBase, sim.windowBase());
    sim.step(rec); // addi in callee
    sim.step(rec); // ret -> window shifts back
    const func::ArchState out = sim.captureState();
    EXPECT_EQ(out.callDepth, 0u);
    EXPECT_EQ(out.windowBase, in.windowBase + layout::windowFrameBytes);
}

TEST(FuncSim, RunMatchesStepOnWindowedRecursion)
{
    // Deep recursion through the windowed ABI: run() in chunks and
    // single steps must stay in lockstep on pc, depth, window base and
    // every visible register.
    AsmBuilder b;
    auto fib = b.newLabel();
    auto recurse = b.newLabel();
    auto done = b.newLabel();
    b.addi(4, regZero, 12);
    b.call(fib);
    b.halt();
    b.bind(fib);
    b.addi(5, regZero, 2);
    b.branch(Opcode::Bge, 4, 5, recurse);
    b.jmp(done);
    b.bind(recurse);
    b.mov(10, 4);
    b.addi(4, 10, -1);
    b.call(fib);
    b.mov(11, 4);
    b.addi(4, 10, -2);
    b.call(fib);
    b.emitR(Opcode::Add, 4, 4, 11);
    b.bind(done);
    b.ret();
    isa::Program p = makeProgram(b, true);

    mem::SparseMemory ma, mb;
    func::FuncSim fast(p, ma);
    func::FuncSim slow(p, mb);
    func::StepRecord rec;
    // Compare at many interleaved checkpoints, not just the end.
    while (!slow.halted()) {
        fast.run(97);
        for (int i = 0; i < 97 && slow.step(rec); ++i) {
        }
        ASSERT_EQ(fast.pc(), slow.pc());
        ASSERT_EQ(fast.halted(), slow.halted());
        ASSERT_EQ(fast.callDepth(), slow.callDepth());
        ASSERT_EQ(fast.windowBase(), slow.windowBase());
        for (RegIndex r = 0; r < isa::numIntRegs; ++r)
            ASSERT_EQ(fast.readIntReg(r), slow.readIntReg(r))
                << "r" << unsigned(r) << " at pc " << slow.pc();
    }
    EXPECT_TRUE(fast.halted());
    EXPECT_EQ(fast.readIntReg(4), 144u); // fib(12)
}

TEST(FuncSim, RequiresFinalizedProgram)
{
    AsmBuilder b;
    b.addi(4, regZero, 1);
    b.halt();
    isa::Program p;
    p.name = "unfinalized";
    p.code = b.seal(); // code present but never finalize()d
    mem::SparseMemory m;
    EXPECT_THROW(func::FuncSim sim(p, m), PanicError);
}

TEST(FuncSim, ProgramImageIsImmutable)
{
    // The op image belongs to the FuncSim; translating and running the
    // program never changes the program itself.
    AsmBuilder b;
    auto fn = b.newLabel();
    b.addi(4, regZero, 3);
    b.call(fn);
    b.halt();
    b.bind(fn);
    b.addi(10, 4, 1);
    b.ret();
    isa::Program p = makeProgram(b, true);
    const std::vector<std::uint32_t> image = p.code;
    std::vector<std::string> decoded;
    for (Addr pc = 0; pc < p.size(); ++pc)
        decoded.push_back(isa::disassemble(p.inst(pc)));
    {
        mem::SparseMemory m;
        func::FuncSim sim(p, m);
        sim.run(1'000'000);
        EXPECT_TRUE(sim.halted());
    }
    EXPECT_EQ(p.code, image);
    for (Addr pc = 0; pc < p.size(); ++pc)
        EXPECT_EQ(isa::disassemble(p.inst(pc)), decoded[pc]);
}

TEST(FuncSim, OffImagePcHalts)
{
    // A jump off the end of the code image executes as HALT there.
    AsmBuilder b;
    b.addi(4, regZero, 1);
    b.emitWord(isa::encodeJ(Opcode::Jmp, 1000));
    mem::SparseMemory m;
    isa::Program p = makeProgram(b);
    func::FuncSim sim(p, m);
    func::StepRecord rec;
    EXPECT_TRUE(sim.step(rec));
    EXPECT_TRUE(sim.step(rec));
    EXPECT_EQ(rec.npc, 1000u);
    EXPECT_FALSE(sim.step(rec));
    EXPECT_TRUE(rec.halted);
    EXPECT_EQ(rec.pc, 1000u);
    EXPECT_TRUE(sim.halted());
    EXPECT_EQ(sim.pc(), 1000u);
    EXPECT_EQ(sim.stats().insts, 2u);
}

TEST(FuncSim, TraceRecordsEachInstructionButNotHalt)
{
    AsmBuilder b;
    b.addi(4, regZero, 4096);
    b.st(4, 4, 8);
    b.ld(5, 4, 8);
    b.halt();
    mem::SparseMemory m;
    const isa::Program p = makeProgram(b);
    func::FuncSim sim(p, m);
    std::vector<func::TraceRecord> trace(10);
    ASSERT_EQ(sim.trace(10, trace.data()), 3u);
    for (Addr pc = 0; pc < 3; ++pc) {
        EXPECT_EQ(trace[pc].pc, pc);
        EXPECT_EQ(trace[pc].npc, pc + 1);
        EXPECT_EQ(trace[pc].isMem, pc != 0);
        EXPECT_EQ(trace[pc].effAddr, pc != 0 ? 4104u : 0u);
    }
    EXPECT_TRUE(sim.halted());
    EXPECT_EQ(sim.pc(), 3u);
    EXPECT_EQ(sim.stats().insts, 3u);
    EXPECT_EQ(sim.readIntReg(5), 4096u);
    EXPECT_EQ(sim.trace(10, trace.data()), 0u);
    EXPECT_EQ(sim.stats().insts, 3u);
}

TEST(FuncSim, LoadProgramDataWritesOnlyNonzeroWords)
{
    // The chunked loader must give the image and page set of writing
    // each nonzero word: a page is created only for a nonzero word, and
    // a zero in a segment leaves a pre-populated word alone.
    constexpr unsigned wordsPerPage = mem::SparseMemory::wordsPerPage;
    isa::Program p;
    Rng rng(99);
    // Three pages' worth of words from mid-page, so spanning four
    // pages: nonzero words, then a whole page of zeros (no page may
    // appear for it), then sparse nonzero words.
    isa::DataSegment mixed;
    mixed.base = 0x40'0000 + 200 * 8;
    mixed.words.assign(3 * wordsPerPage, 0);
    for (unsigned i = 0; i < 300; ++i)
        mixed.words[i] = rng.next() | 1;
    for (unsigned i = 312 + wordsPerPage; i < mixed.words.size(); i += 7)
        mixed.words[i] = rng.next() | 1;
    p.data.push_back(mixed);
    // All zeros: no page at all.
    isa::DataSegment zeros;
    zeros.base = 0x80'0000;
    zeros.words.assign(2 * wordsPerPage, 0);
    p.data.push_back(zeros);
    // Over a pre-populated page: zeros in the segment where the page
    // holds nonzero words.
    isa::DataSegment over;
    over.base = 0xc0'0000;
    over.words.assign(wordsPerPage, 0);
    for (unsigned i = 0; i < wordsPerPage; i += 2)
        over.words[i] = rng.next() | 1;
    p.data.push_back(over);

    mem::SparseMemory loaded, reference;
    for (mem::SparseMemory *m : {&loaded, &reference})
        for (unsigned i = 1; i < wordsPerPage; i += 2)
            m->write(over.base + i * 8, 0x5000 + i);
    func::loadProgramData(p, loaded);
    for (const isa::DataSegment &seg : p.data)
        for (size_t i = 0; i < seg.words.size(); ++i)
            if (seg.words[i])
                reference.write(seg.base + i * 8, seg.words[i]);

    EXPECT_EQ(loaded.allocatedPages(), reference.allocatedPages());
    EXPECT_EQ(loaded.allocatedPages(), 4u); // 3 from mixed, 1 from over
    unsigned mismatches = 0;
    reference.forEachPage([&](Addr base, const std::uint64_t *words) {
        for (unsigned i = 0; i < wordsPerPage; ++i)
            if (loaded.read(base + i * 8) != words[i])
                ++mismatches;
    });
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(loaded.read(over.base + 8), 0x5001u);
    EXPECT_EQ(loaded.read(zeros.base), 0u);
}

// ---------------------------------------------------------------------
// Frame-cache coherence: under the windowed ABI the engine holds the
// current frame in host slots; loads, stores and the memory image must
// still see every register at its register-space address.
// ---------------------------------------------------------------------

/** Register-space address of windowed register rN in frame @p wbp. */
Addr
slotAddr(Addr wbp, RegIndex idx)
{
    return wbp + isa::windowSlot(RegClass::Int, idx) * 8;
}

TEST(FuncSim, RegSpaceLoadsAndStoresSeeTheFrameCache)
{
    const Addr w0 = layout::initialWindowPointer();
    const Addr w1 = w0 - layout::windowFrameBytes; // callee frame
    const auto off = [&](RegIndex idx) {
        return static_cast<std::int32_t>(slotAddr(0, idx));
    };

    // Globals r3/r4 hold the frame bases; r5..r9 collect results.
    AsmBuilder b;
    auto fn = b.newLabel();
    b.li(3, w0);
    b.li(4, w1);
    b.addi(10, regZero, 5);   // r10 = 5 (cached, not yet in memory)
    b.addi(12, regZero, 77);
    b.st(3, 12, off(10));     // store to r10's own address ...
    b.mov(5, 10);             // ... is what r10 now reads: 77
    b.addi(10, 10, 1);        // r10 = 78
    b.ld(6, 3, off(10));      // a load sees the cached 78
    b.call(fn);
    b.mov(9, 10);             // r10 after the callee stored to it: 999
    b.addi(15, regZero, 55);  // only in the frame cache until run() ends
    b.halt();
    b.bind(fn);
    b.ld(7, 3, off(10));      // caller's r10, stored back on Call: 78
    b.addi(13, regZero, 999);
    b.st(3, 13, off(10));     // store to the caller's r10
    b.addi(11, regZero, 1);
    b.addi(14, regZero, 4242);
    b.st(4, 14, off(11));     // store to the callee's own r11
    b.mov(8, 11);             // r8 = 4242
    b.ret();

    isa::Program p = makeProgram(b, true);
    mem::SparseMemory m;
    func::FuncSim sim(p, m);
    sim.run(1'000'000);
    ASSERT_TRUE(sim.halted());
    EXPECT_EQ(sim.readIntReg(5), 77u);
    EXPECT_EQ(sim.readIntReg(6), 78u);
    EXPECT_EQ(sim.readIntReg(7), 78u);
    EXPECT_EQ(sim.readIntReg(8), 4242u);
    EXPECT_EQ(sim.readIntReg(9), 999u);
    EXPECT_EQ(sim.readIntReg(10), 999u);
    // The image holds every register at its address.
    EXPECT_EQ(m.read(slotAddr(w0, 10)), 999u);
    EXPECT_EQ(m.read(slotAddr(w0, 12)), 77u);
    EXPECT_EQ(m.read(slotAddr(w0, 15)), 55u);
    EXPECT_EQ(m.read(slotAddr(w1, 11)), 4242u);
    EXPECT_EQ(m.read(slotAddr(w1, 13)), 999u);
    Addr callPc = 0;
    while (!p.inst(callPc).isCall)
        ++callPc;
    EXPECT_EQ(m.read(slotAddr(w1, isa::regRa)), callPc + 1);
}

TEST(FuncSim, RecursionAcrossPageBoundariesKeepsEveryFrame)
{
    // rec(n) puts n-derived values in windowed registers (int and fp,
    // including the frame's last slot), recurses to depth kDepth + 1,
    // and on the way out adds them to the global r5. 376-byte frames
    // straddle 4 KiB pages, so the frame loads and write-backs cross
    // page boundaries many times.
    constexpr unsigned kDepth = 60;
    AsmBuilder b;
    auto fn = b.newLabel();
    auto base = b.newLabel();
    b.addi(4, regZero, kDepth);
    b.call(fn);
    b.halt();
    b.bind(fn);
    b.mov(10, 4);
    b.addi(20, 4, 100);
    b.addi(31, 4, 1000);
    b.emitR(Opcode::Fcvtif, 31, 4, regZero);  // f31 = double(n)
    b.branch(Opcode::Beq, 4, regZero, base);
    b.addi(4, 4, -1);
    b.call(fn);
    b.bind(base);
    b.emitR(Opcode::Add, 5, 5, 10);
    b.emitR(Opcode::Add, 5, 5, 20);
    b.emitR(Opcode::Add, 5, 5, 31);
    b.emitR(Opcode::Fcvtfi, 21, 31, regZero);
    b.emitR(Opcode::Add, 5, 5, 21);
    b.ret();

    isa::Program p = makeProgram(b, true);
    mem::SparseMemory m;
    func::FuncSim sim(p, m);
    sim.run(1'000'000);
    ASSERT_TRUE(sim.halted());
    const std::uint64_t n = kDepth;
    EXPECT_EQ(sim.readIntReg(5), 4 * n * (n + 1) / 2 + 1100 * (n + 1));
    EXPECT_EQ(sim.stats().maxCallDepth, kDepth + 1);

    // Frame d (1-based) ran rec(kDepth + 1 - d). Every written slot is
    // in the image, and the pages are exactly the written slots'.
    const Addr w0 = layout::initialWindowPointer();
    const unsigned f31 = isa::windowSlot(RegClass::Float, 31);
    std::set<Addr> pages;
    unsigned straddling = 0;
    for (unsigned d = 1; d <= kDepth + 1; ++d) {
        const Addr w = w0 - d * layout::windowFrameBytes;
        const std::uint64_t arg = kDepth + 1 - d;
        EXPECT_EQ(m.read(slotAddr(w, 10)), arg) << "depth " << d;
        EXPECT_EQ(m.read(slotAddr(w, 20)), arg + 100) << "depth " << d;
        EXPECT_EQ(m.read(slotAddr(w, 31)), arg + 1000) << "depth " << d;
        EXPECT_EQ(m.read(slotAddr(w, 21)), arg) << "depth " << d;
        EXPECT_EQ(m.read(w + f31 * 8),
                  std::bit_cast<std::uint64_t>(double(arg)))
            << "depth " << d;
        for (RegIndex r : {RegIndex(isa::regRa), RegIndex(10),
                           RegIndex(20), RegIndex(21), RegIndex(31)})
            pages.insert(slotAddr(w, r) >> mem::SparseMemory::pageShift);
        pages.insert((w + f31 * 8) >> mem::SparseMemory::pageShift);
        if ((w >> mem::SparseMemory::pageShift) !=
            ((w + layout::windowFrameBytes - 1) >>
             mem::SparseMemory::pageShift))
            ++straddling;
    }
    EXPECT_GE(straddling, 3u);
    EXPECT_EQ(m.allocatedPages(), pages.size());
}

/** Every word of every page of @p a equals @p b's, and vice versa. */
void
expectSameImage(const mem::SparseMemory &a, const mem::SparseMemory &b,
                const std::string &label)
{
    EXPECT_EQ(a.allocatedPages(), b.allocatedPages()) << label;
    unsigned mismatches = 0;
    a.forEachPage([&](Addr base, const std::uint64_t *words) {
        for (unsigned i = 0; i < mem::SparseMemory::wordsPerPage; ++i)
            if (b.read(base + i * 8) != words[i])
                ++mismatches;
    });
    EXPECT_EQ(mismatches, 0u) << label;
}

void
expectSameState(const func::FuncSim &a, const func::FuncSim &b,
                const std::string &label)
{
    const func::FuncSimStats &sa = a.stats(), &sb = b.stats();
    EXPECT_EQ(sa.insts, sb.insts) << label;
    EXPECT_EQ(sa.loads, sb.loads) << label;
    EXPECT_EQ(sa.stores, sb.stores) << label;
    EXPECT_EQ(sa.calls, sb.calls) << label;
    EXPECT_EQ(sa.condBranches, sb.condBranches) << label;
    EXPECT_EQ(sa.takenCondBranches, sb.takenCondBranches) << label;
    EXPECT_EQ(sa.maxCallDepth, sb.maxCallDepth) << label;
    EXPECT_EQ(a.halted(), b.halted()) << label;
    const func::ArchState ca = a.captureState(), cb = b.captureState();
    EXPECT_EQ(ca.pc, cb.pc) << label;
    EXPECT_EQ(ca.windowedAbi, cb.windowedAbi) << label;
    EXPECT_EQ(ca.callDepth, cb.callDepth) << label;
    EXPECT_EQ(ca.windowBase, cb.windowBase) << label;
    for (unsigned r = 0; r < isa::numIntRegs; ++r)
        EXPECT_EQ(ca.intRegs[r], cb.intRegs[r]) << label << " r" << r;
    for (unsigned r = 0; r < isa::numFloatRegs; ++r)
        EXPECT_EQ(ca.fpRegs[r], cb.fpRegs[r]) << label << " f" << r;
}

TEST(FuncSim, RunChunksAndStepsAgreeOnGeneratedProfiles)
{
    // One run(N), run() in random chunks (arbitrary resume boundaries)
    // and N step() calls end in the same statistics, architectural
    // state and memory image, down to which pages exist.
    constexpr InstCount kInsts = 20'000;
    Rng rng(2024);
    for (const wload::BenchProfile &prof : wload::spec2000Profiles()) {
        for (const bool windowed : {false, true}) {
            const std::string label =
                prof.name + (windowed ? "/windowed" : "/flat");
            const isa::Program &prog =
                *wload::cachedProgram(prof, windowed);
            mem::SparseMemory mOnce, mChunks, mSteps;
            func::FuncSim once(prog, mOnce);
            func::FuncSim chunks(prog, mChunks);
            func::FuncSim steps(prog, mSteps);

            once.run(kInsts);
            for (InstCount done = 0; done < kInsts;) {
                const InstCount n =
                    std::min<InstCount>(1 + rng.below(997), kInsts - done);
                chunks.run(n);
                done += n;
            }
            func::StepRecord rec;
            for (InstCount i = 0; i < kInsts; ++i)
                steps.step(rec);

            expectSameState(once, chunks, label + " chunks");
            expectSameState(once, steps, label + " steps");
            expectSameImage(mOnce, mChunks, label + " chunks");
            expectSameImage(mOnce, mSteps, label + " steps");
        }
    }
}

TEST(FuncSim, TraceChunksMatchStepsOnGeneratedProfiles)
{
    // trace() in random chunk sizes records exactly what N step() calls
    // report, and ends in run(N)'s statistics, architectural state and
    // memory image, down to which pages exist.
    constexpr InstCount kInsts = 20'000;
    Rng rng(2025);
    for (const wload::BenchProfile &prof : wload::spec2000Profiles()) {
        for (const bool windowed : {false, true}) {
            const std::string label =
                prof.name + (windowed ? "/windowed" : "/flat");
            const isa::Program &prog =
                *wload::cachedProgram(prof, windowed);
            mem::SparseMemory mOnce, mTrace, mSteps;
            func::FuncSim once(prog, mOnce);
            func::FuncSim traced(prog, mTrace);
            func::FuncSim steps(prog, mSteps);

            once.run(kInsts);
            // Garbage in every slot: each record must be written whole.
            std::vector<func::TraceRecord> trace(
                kInsts, func::TraceRecord{~Addr(0), ~Addr(0), true,
                                          ~Addr(0)});
            for (InstCount done = 0; done < kInsts;) {
                const InstCount n =
                    std::min<InstCount>(1 + rng.below(4999), kInsts - done);
                ASSERT_EQ(traced.trace(n, trace.data() + done), n)
                    << label;
                done += n;
            }
            unsigned mismatches = 0;
            func::StepRecord rec;
            for (InstCount i = 0; i < kInsts; ++i) {
                ASSERT_TRUE(steps.step(rec)) << label;
                const func::TraceRecord &t = trace[i];
                if (t.pc != rec.pc || t.npc != rec.npc ||
                    t.isMem != rec.isMem || t.effAddr != rec.effAddr)
                    ++mismatches;
            }
            EXPECT_EQ(mismatches, 0u) << label;

            expectSameState(once, traced, label + " trace");
            expectSameImage(mOnce, mTrace, label + " trace");
        }
    }
}

// ---------------------------------------------------------------------
// Straight-run boundaries: the engine executes the ops between control
// ops as one block, so a budget that ends inside, at the end of or past
// a run, a branch into a run's middle and a run that walks off the
// image must all end where single steps end.
// ---------------------------------------------------------------------

/**
 * For every budget k from 0 to one past the halt, run(k) and trace(k),
 * each from a fresh FuncSim, end in the statistics, architectural
 * state, memory image and pages of k step() calls, and trace() records
 * what the steps report. Each then resumes to the halt and agrees
 * again. @return the number of instructions to the halt.
 */
InstCount
expectBudgetsMatchSteps(const isa::Program &p, const std::string &name)
{
    // The programs halt within a few dozen instructions; the bound
    // turns an engine that stops advancing into a failure, not a hang.
    constexpr InstCount kMaxInsts = 1000;
    InstCount total = 0;
    {
        mem::SparseMemory m;
        func::FuncSim sim(p, m);
        func::StepRecord rec;
        while (total < kMaxInsts && sim.step(rec))
            ++total;
        EXPECT_TRUE(sim.halted()) << name << ": no halt in " << kMaxInsts;
        if (!sim.halted())
            return total;
    }
    for (InstCount k = 0; k <= total + 1; ++k) {
        const std::string label = name + " budget " + std::to_string(k);
        mem::SparseMemory mRun, mTrace, mSteps;
        func::FuncSim run(p, mRun), traced(p, mTrace), steps(p, mSteps);
        std::vector<func::StepRecord> recs;
        func::StepRecord rec;
        for (InstCount i = 0; i < k && steps.step(rec); ++i)
            recs.push_back(rec);
        run.run(k);
        std::vector<func::TraceRecord> trace(total + 1);
        EXPECT_EQ(traced.trace(k, trace.data()), recs.size()) << label;
        for (size_t i = 0; i < recs.size(); ++i) {
            EXPECT_EQ(trace[i].pc, recs[i].pc) << label << " record " << i;
            EXPECT_EQ(trace[i].npc, recs[i].npc) << label << " record " << i;
            EXPECT_EQ(trace[i].isMem, recs[i].isMem) << label;
            EXPECT_EQ(trace[i].effAddr, recs[i].effAddr) << label;
        }
        expectSameState(steps, run, label + " run");
        expectSameState(steps, traced, label + " trace");
        expectSameImage(mSteps, mRun, label + " run");
        expectSameImage(mSteps, mTrace, label + " trace");

        while (steps.step(rec)) {
        }
        run.run();
        traced.trace(total + 1, trace.data());
        EXPECT_TRUE(steps.halted()) << label;
        expectSameState(steps, run, label + " run resumed");
        expectSameState(steps, traced, label + " trace resumed");
        expectSameImage(mSteps, mRun, label + " run resumed");
        expectSameImage(mSteps, mTrace, label + " trace resumed");
    }
    return total;
}

TEST(FuncSim, BudgetEndsInsideAtAndPastAStraightRun)
{
    // A four-op run, a taken branch over one op, a two-op run, Halt.
    AsmBuilder b;
    auto target = b.newLabel();
    b.addi(4, regZero, 1);
    b.addi(5, 4, 2);
    b.addi(6, 5, 3);
    b.addi(7, 6, 4);
    b.branch(Opcode::Beq, regZero, regZero, target);
    b.addi(8, regZero, 99);  // skipped
    b.bind(target);
    b.addi(9, 7, 1);
    b.halt();
    const isa::Program p = makeProgram(b);
    EXPECT_EQ(expectBudgetsMatchSteps(p, "beq"), 6u);

    // Where each budget leaves pc: 3 is one op inside the first run,
    // 5 ends exactly on its branch, 6 on Halt.
    const std::pair<InstCount, Addr> stops[] = {{3, 3}, {4, 4}, {5, 6},
                                                {6, 7}, {7, 7}};
    for (const auto &[budget, pc] : stops) {
        mem::SparseMemory m;
        func::FuncSim sim(p, m);
        EXPECT_EQ(sim.run(budget).insts, std::min<InstCount>(budget, 6));
        EXPECT_EQ(sim.pc(), pc) << "budget " << budget;
        EXPECT_EQ(sim.halted(), budget > 6) << "budget " << budget;
    }
    mem::SparseMemory m;
    func::FuncSim sim(p, m);
    sim.run();
    EXPECT_EQ(sim.readIntReg(7), 10u);
    EXPECT_EQ(sim.readIntReg(8), 0u);
    EXPECT_EQ(sim.readIntReg(9), 11u);
}

TEST(FuncSim, BranchIntoTheMiddleOfAStraightRun)
{
    // The loop branches back to the third op of the five-op run that
    // starts the program, so each later pass runs a three-op suffix.
    AsmBuilder b;
    auto loop = b.newLabel();
    b.addi(4, regZero, 3);
    b.addi(5, regZero, 0);
    b.bind(loop);
    b.addi(5, 5, 1);
    b.addi(6, 5, 7);
    b.addi(4, 4, -1);
    b.branch(Opcode::Bne, 4, regZero, loop);
    b.halt();
    const isa::Program p = makeProgram(b);
    EXPECT_EQ(expectBudgetsMatchSteps(p, "loop"), 14u);

    mem::SparseMemory m;
    func::FuncSim sim(p, m);
    sim.run(8); // the first pass, the branch back, then two ops
    EXPECT_EQ(sim.pc(), 4u);
    EXPECT_EQ(sim.readIntReg(5), 2u);
    sim.run();
    EXPECT_EQ(sim.readIntReg(5), 3u);
    EXPECT_EQ(sim.readIntReg(6), 10u);
    EXPECT_EQ(sim.stats().takenCondBranches, 2u);
}

TEST(FuncSim, StraightRunWalksOffTheImageIntoHalt)
{
    // The last code word is not a control op: the run ends at the
    // off-image Halt, with pc one past the image.
    AsmBuilder b;
    b.addi(4, regZero, 1);
    b.addi(5, 4, 1);
    b.addi(6, 5, 1);
    const isa::Program p = makeProgram(b);
    EXPECT_EQ(expectBudgetsMatchSteps(p, "off-image"), 3u);

    mem::SparseMemory m;
    func::FuncSim sim(p, m);
    EXPECT_EQ(sim.run().insts, 3u);
    EXPECT_TRUE(sim.halted());
    EXPECT_EQ(sim.pc(), p.size());
    EXPECT_EQ(sim.readIntReg(6), 3u);
}

TEST(FuncSim, FrameStoreInsideAStraightRunIsReadLaterInIt)
{
    // Windowed ABI: a store to the current frame's r10 and later reads
    // of r10, all in one straight run, see the stored value.
    const Addr w0 = layout::initialWindowPointer();
    AsmBuilder b;
    b.li(3, w0);
    b.addi(10, regZero, 5);
    b.addi(12, regZero, 77);
    b.st(3, 12, static_cast<std::int32_t>(slotAddr(0, 10)));
    b.mov(5, 10);
    b.emitR(Opcode::Add, 6, 10, 10);
    b.addi(10, 10, 1);
    b.halt();
    const isa::Program p = makeProgram(b, true);
    for (Addr pc = 0; pc + 1 < p.size(); ++pc)
        ASSERT_FALSE(p.inst(pc).isControl()) << "pc " << pc;
    expectBudgetsMatchSteps(p, "frame store");

    mem::SparseMemory m;
    func::FuncSim sim(p, m);
    sim.run();
    ASSERT_TRUE(sim.halted());
    EXPECT_EQ(sim.readIntReg(5), 77u);
    EXPECT_EQ(sim.readIntReg(6), 154u);
    EXPECT_EQ(m.read(slotAddr(w0, 10)), 78u);
}

} // namespace
