/**
 * @file
 * Out-of-order CPU tests: hand-written program execution on every
 * renamer architecture, co-simulation against the functional golden
 * model, window-trap behaviour, and SMT sanity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cpu/conv_renamer.hh"
#include "cpu/ooo_cpu.hh"
#include "func/func_sim.hh"
#include "trace/json.hh"
#include "trace/stats_json.hh"
#include "wload/asm_builder.hh"
#include "wload/generator.hh"
#include "wload/profile.hh"

#include "renamer_state.hh"

namespace {

using namespace vca;
using namespace vca::cpu;
using wload::AsmBuilder;

isa::Program
makeProgram(AsmBuilder &b, bool windowed)
{
    isa::Program p;
    p.name = "t";
    p.windowedAbi = windowed;
    p.code = b.seal();
    p.finalize();
    return p;
}

/** Fibonacci with windowed locals (works under both ABIs when the
 *  clobbered registers are saved appropriately; here we rely on windows
 *  for the windowed machines and use explicit saves for the baseline). */
isa::Program
fibProgram(bool windowed)
{
    AsmBuilder b;
    auto fib = b.newLabel();
    b.addi(4, isa::regZero, 11);
    b.call(fib);
    b.mov(10, 4);
    b.halt();

    b.bind(fib);
    auto recurse = b.newLabel();
    auto done = b.newLabel();
    // The comparison constant lives in a caller-saved argument register
    // so it works identically under both ABIs.
    b.addi(5, isa::regZero, 2);
    b.branch(isa::Opcode::Bge, 4, 5, recurse);
    b.jmp(done);
    b.bind(recurse);
    if (!windowed) {
        // Baseline ABI: explicit callee saves.
        b.addi(2, 2, -24);
        b.st(2, 10, 0);
        b.st(2, 11, 8);
        b.st(2, 1, 16);
    }
    b.mov(10, 4);
    b.addi(4, 10, -1);
    b.call(fib);
    b.mov(11, 4);
    b.addi(4, 10, -2);
    b.call(fib);
    b.emitR(isa::Opcode::Add, 4, 4, 11);
    if (!windowed) {
        b.ld(10, 2, 0);
        b.ld(11, 2, 8);
        b.ld(1, 2, 16);
        b.addi(2, 2, 24);
    }
    b.bind(done);
    b.ret();

    isa::Program p;
    p.name = windowed ? "fib_w" : "fib_nw";
    p.windowedAbi = windowed;
    p.code = b.seal();
    p.finalize();
    return p;
}

CpuParams
paramsFor(RenamerKind kind, unsigned physRegs = 256,
          unsigned threads = 1)
{
    CpuParams p = CpuParams::preset(kind, physRegs, threads);
    return p;
}

// ---------------------------------------------------------------------
// Basic execution on each architecture
// ---------------------------------------------------------------------

struct ArchCase
{
    RenamerKind kind;
    bool windowedAbi;
    const char *name;
};

class ArchExecTest : public ::testing::TestWithParam<ArchCase>
{
};

TEST_P(ArchExecTest, FibonacciCommitsCorrectResult)
{
    const ArchCase &ac = GetParam();
    isa::Program prog = fibProgram(ac.windowedAbi);
    OooCpu cpu(paramsFor(ac.kind), {&prog});
    auto res = cpu.run(2'000'000, 4'000'000);
    ASSERT_TRUE(cpu.threadDone(0)) << ac.name;
    EXPECT_GT(res.totalInsts, 100u);
    cpu.renamer().validate();

    // The functional model is the oracle for the final value.
    mem::SparseMemory refMem;
    func::FuncSim ref(prog, refMem);
    ref.run();
    // fib(11) = 89 lands in r4/a0 and is copied to r10 by main.
    EXPECT_EQ(ref.readIntReg(4), 89u);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchs, ArchExecTest,
    ::testing::Values(
        ArchCase{RenamerKind::Baseline, false, "baseline"},
        ArchCase{RenamerKind::ConvWindow, true, "convwindow"},
        ArchCase{RenamerKind::IdealWindow, true, "ideal"},
        ArchCase{RenamerKind::Vca, true, "vca"},
        ArchCase{RenamerKind::Vca, false, "vca_flat"}),
    [](const auto &info) { return info.param.name; });

TEST(Alu, MulWrapsInBothModels)
{
    // Products that overflow int64 keep their low 64 bits, in the
    // functional reference and in the detailed core alike.
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    AsmBuilder b;
    b.li(4, static_cast<std::uint64_t>(kMax));
    b.addi(5, isa::regZero, 2);
    b.emitR(isa::Opcode::Mul, 6, 4, 5);
    b.li(7, static_cast<std::uint64_t>(kMin));
    b.addi(8, isa::regZero, -1);
    b.emitR(isa::Opcode::Mul, 9, 7, 8);
    b.halt();
    const isa::Program prog = makeProgram(b, false);
    const std::vector<std::uint64_t> expected = {
        0xffff'ffff'ffff'fffeull, static_cast<std::uint64_t>(kMin)};

    mem::SparseMemory refMem;
    func::FuncSim ref(prog, refMem);
    ref.run();
    ASSERT_TRUE(ref.halted());
    EXPECT_EQ(ref.readIntReg(6), expected[0]);
    EXPECT_EQ(ref.readIntReg(9), expected[1]);

    for (RenamerKind kind : {RenamerKind::Baseline, RenamerKind::Vca}) {
        OooCpu cpu(paramsFor(kind), {&prog});
        std::vector<std::uint64_t> products;
        cpu.addCommitListener([&](const DynInst &inst) {
            if (inst.si->op == isa::Opcode::Mul)
                products.push_back(inst.result);
        });
        cpu.run(1'000, 100'000);
        ASSERT_TRUE(cpu.threadDone(0));
        EXPECT_EQ(products, expected);
    }
}

// ---------------------------------------------------------------------
// Co-simulation: the timing core's commit stream must match the
// functional simulator instruction for instruction.
// ---------------------------------------------------------------------

void
cosimCheck(const isa::Program &prog, const CpuParams &params,
           InstCount maxInsts)
{
    OooCpu cpu(params, {&prog});
    mem::SparseMemory refMem;
    func::FuncSim ref(prog, refMem);

    InstCount checked = 0;
    bool mismatch = false;
    cpu.addCommitListener([&](const DynInst &inst) {
        if (mismatch)
            return;
        func::StepRecord rec;
        ref.step(rec);
        ++checked;
        if (rec.pc != inst.pc) {
            ADD_FAILURE() << "pc mismatch at inst " << checked << ": ref "
                          << rec.pc << " vs cpu " << inst.pc;
            mismatch = true;
            return;
        }
        if (inst.si->hasDest && !inst.si->isCall &&
            rec.destValue != inst.result) {
            ADD_FAILURE() << "value mismatch at pc " << inst.pc
                          << " (inst " << checked << "): ref "
                          << rec.destValue << " vs cpu " << inst.result;
            mismatch = true;
            return;
        }
        if (inst.si->isMem() && rec.effAddr != inst.effAddr) {
            ADD_FAILURE() << "address mismatch at pc " << inst.pc
                          << ": ref " << rec.effAddr << " vs cpu "
                          << inst.effAddr;
            mismatch = true;
        }
    });

    cpu.run(maxInsts, maxInsts * 40 + 100'000);
    EXPECT_GT(checked, maxInsts / 2) << "too few instructions committed";
    EXPECT_FALSE(mismatch);
    cpu.renamer().validate();
}

struct CosimCase
{
    RenamerKind kind;
    const char *bench;
    unsigned physRegs;
    const char *name;
};

class CosimTest : public ::testing::TestWithParam<CosimCase>
{
};

TEST_P(CosimTest, CommitStreamMatchesFunctionalModel)
{
    const CosimCase &cc = GetParam();
    const bool windowed = cc.kind != RenamerKind::Baseline;
    const isa::Program *prog =
        wload::cachedProgram(wload::profileByName(cc.bench), windowed);
    cosimCheck(*prog, paramsFor(cc.kind, cc.physRegs), 60'000);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CosimTest,
    ::testing::Values(
        CosimCase{RenamerKind::Baseline, "crafty", 256, "baseline_crafty"},
        CosimCase{RenamerKind::Baseline, "equake", 128, "baseline_equake"},
        CosimCase{RenamerKind::ConvWindow, "crafty", 256, "convw_crafty"},
        CosimCase{RenamerKind::ConvWindow, "perlbmk_535", 128,
                  "convw_perl_small"},
        CosimCase{RenamerKind::ConvWindow, "mesa", 192, "convw_mesa"},
        CosimCase{RenamerKind::IdealWindow, "crafty", 64, "ideal_crafty"},
        CosimCase{RenamerKind::IdealWindow, "vortex_2", 128,
                  "ideal_vortex"},
        CosimCase{RenamerKind::Vca, "crafty", 256, "vca_crafty"},
        CosimCase{RenamerKind::Vca, "crafty", 64, "vca_crafty_64"},
        CosimCase{RenamerKind::Vca, "perlbmk_535", 96, "vca_perl_96"},
        CosimCase{RenamerKind::Vca, "vortex_2", 128, "vca_vortex"},
        CosimCase{RenamerKind::Vca, "equake", 192, "vca_equake"},
        CosimCase{RenamerKind::Vca, "twolf", 160, "vca_twolf"}),
    [](const auto &info) { return info.param.name; });

TEST(CosimVcaFlat, NonWindowedBinaryOnVca)
{
    // Figure 7 configuration: VCA managing plain thread contexts.
    const isa::Program *prog =
        wload::cachedProgram(wload::profileByName("crafty"), false);
    cosimCheck(*prog, paramsFor(RenamerKind::Vca, 128), 60'000);
}

// ---------------------------------------------------------------------
// Window traps
// ---------------------------------------------------------------------

TEST(WindowTraps, DeepRecursionTriggersOverflowAndUnderflow)
{
    isa::Program prog = fibProgram(true);
    CpuParams params = paramsFor(RenamerKind::ConvWindow, 192);
    OooCpu cpu(params, {&prog});
    auto *wr = dynamic_cast<WindowConvRenamer *>(&cpu.renamer());
    ASSERT_NE(wr, nullptr);
    EXPECT_EQ(wr->numWindows(),
              WindowConvRenamer::windowsForConfig(params));
    cpu.run(2'000'000, 4'000'000);
    ASSERT_TRUE(cpu.threadDone(0));
    // fib(11) recurses ~11 deep; with (192-17-64)/47 = 2 windows there
    // must be both overflow and underflow traps.
    EXPECT_GT(wr->overflowTraps.value(), 0.0);
    EXPECT_GT(wr->underflowTraps.value(), 0.0);
    EXPECT_GT(wr->windowSaves.value(), 0.0);
    EXPECT_GT(wr->windowRestores.value(), 0.0);
}

TEST(WindowTraps, WindowCountFormula)
{
    CpuParams p = paramsFor(RenamerKind::ConvWindow, 256);
    // (256 - 17 - 64) / 47 = 3
    EXPECT_EQ(WindowConvRenamer::windowsForConfig(p), 3u);
    p.physRegs = 128;
    EXPECT_EQ(WindowConvRenamer::windowsForConfig(p), 1u);
    p.physRegs = 448;
    EXPECT_EQ(WindowConvRenamer::windowsForConfig(p), 7u);
}

TEST(Baseline, CannotRunWithoutRenameRegisters)
{
    // Paper Section 4.1/4.2: the conventional architecture needs
    // strictly more physical than architectural registers.
    isa::Program prog = fibProgram(false);
    EXPECT_THROW(OooCpu(paramsFor(RenamerKind::Baseline, 64), {&prog}),
                 FatalError);
    EXPECT_THROW(
        OooCpu(paramsFor(RenamerKind::Baseline, 128, 2),
               {&prog, &prog}),
        FatalError);
}

TEST(Vca, RunsWithFewerPhysicalThanArchitecturalRegisters)
{
    // The headline capability: 4 threads x 64 arch regs on fewer
    // physical registers than one architectural set.
    isa::Program prog = fibProgram(true);
    OooCpu cpu(paramsFor(RenamerKind::Vca, 56), {&prog});
    auto res = cpu.run(200'000, 3'000'000);
    EXPECT_TRUE(cpu.threadDone(0));
    EXPECT_GT(res.totalInsts, 100u);
    cpu.renamer().validate();
}

// ---------------------------------------------------------------------
// SMT
// ---------------------------------------------------------------------

TEST(Smt, TwoThreadsBothProgress)
{
    const isa::Program *a =
        wload::cachedProgram(wload::profileByName("crafty"), false);
    const isa::Program *b =
        wload::cachedProgram(wload::profileByName("gzip_graphic"), false);
    OooCpu cpu(paramsFor(RenamerKind::Baseline, 320, 2), {a, b});
    auto res = cpu.run(30'000, 2'000'000, /*stopOnFirstThread=*/true);
    EXPECT_GE(res.threadInsts[0] + res.threadInsts[1], 30'000u);
    EXPECT_GT(res.threadInsts[0], 1000u);
    EXPECT_GT(res.threadInsts[1], 1000u);
    cpu.renamer().validate();
}

TEST(Smt, VcaSharedRenameTableKeepsThreadsSeparate)
{
    const isa::Program *a =
        wload::cachedProgram(wload::profileByName("crafty"), true);
    const isa::Program *b =
        wload::cachedProgram(wload::profileByName("mesa"), true);
    CpuParams params = paramsFor(RenamerKind::Vca, 192, 2);
    OooCpu cpu(params, {a, b});

    // Co-sim both threads simultaneously against separate oracles.
    mem::SparseMemory ma, mb;
    func::FuncSim refA(*a, ma), refB(*b, mb);
    bool mismatch = false;
    cpu.addCommitListener([&](const DynInst &inst) {
        if (mismatch)
            return;
        func::FuncSim &ref = inst.tid == 0 ? refA : refB;
        func::StepRecord rec;
        ref.step(rec);
        if (rec.pc != inst.pc ||
            (inst.si->hasDest && !inst.si->isCall &&
             rec.destValue != inst.result)) {
            ADD_FAILURE() << "thread " << int(inst.tid)
                          << " diverged at pc " << inst.pc;
            mismatch = true;
        }
    });
    cpu.run(25'000, 2'000'000, true);
    EXPECT_FALSE(mismatch);
    cpu.renamer().validate();
}

TEST(Smt, FourThreadVcaOn192Registers)
{
    // Niagara-style: 4 threads + windows on 192 registers (paper §4.3).
    std::vector<const isa::Program *> progs = {
        wload::cachedProgram(wload::profileByName("crafty"), true),
        wload::cachedProgram(wload::profileByName("gzip_graphic"), true),
        wload::cachedProgram(wload::profileByName("mesa"), true),
        wload::cachedProgram(wload::profileByName("gap"), true),
    };
    OooCpu cpu(paramsFor(RenamerKind::Vca, 192, 4), progs);
    auto res = cpu.run(8'000, 1'500'000, true);
    for (unsigned t = 0; t < 4; ++t)
        EXPECT_GT(res.threadInsts[t], 500u) << "thread " << t;
    cpu.renamer().validate();
}

// ---------------------------------------------------------------------
// Timing sanity
// ---------------------------------------------------------------------

TEST(Timing, IpcInPlausibleRange)
{
    const isa::Program *prog =
        wload::cachedProgram(wload::profileByName("crafty"), false);
    OooCpu cpu(paramsFor(RenamerKind::Baseline, 256), {prog});
    auto res = cpu.run(100'000, 2'000'000);
    EXPECT_GT(res.ipc, 0.3);
    EXPECT_LE(res.ipc, 4.0);
}

TEST(Timing, VcaExtraRenameStageLengthensPipeline)
{
    // The same binary on ideal (no extra stage) vs VCA with plentiful
    // registers: VCA must not be faster.
    const isa::Program *prog =
        wload::cachedProgram(wload::profileByName("crafty"), true);
    OooCpu ideal(paramsFor(RenamerKind::IdealWindow, 256), {prog});
    OooCpu vcap(paramsFor(RenamerKind::Vca, 256), {prog});
    auto ri = ideal.run(60'000, 2'000'000);
    auto rv = vcap.run(60'000, 2'000'000);
    EXPECT_LE(rv.ipc, ri.ipc * 1.005);
}

TEST(Timing, FewerRegistersNeverHelpVca)
{
    const isa::Program *prog =
        wload::cachedProgram(wload::profileByName("perlbmk_535"), true);
    OooCpu big(paramsFor(RenamerKind::Vca, 256), {prog});
    OooCpu small(paramsFor(RenamerKind::Vca, 80), {prog});
    auto rb = big.run(60'000, 2'000'000);
    auto rs = small.run(60'000, 4'000'000);
    EXPECT_LT(rs.ipc, rb.ipc * 1.02);
}

TEST(Timing, SingleDcachePortIsSlower)
{
    const isa::Program *prog =
        wload::cachedProgram(wload::profileByName("vortex_2"), false);
    CpuParams two = paramsFor(RenamerKind::Baseline, 256);
    CpuParams one = paramsFor(RenamerKind::Baseline, 256);
    one.dcachePorts = 1;
    OooCpu cpu2(two, {prog});
    OooCpu cpu1(one, {prog});
    auto r2 = cpu2.run(60'000, 2'000'000);
    auto r1 = cpu1.run(60'000, 4'000'000);
    EXPECT_LT(r1.ipc, r2.ipc);
}

// ---------------------------------------------------------------------
// Cycle budgets
// ---------------------------------------------------------------------

TEST(CycleBudget, SaturatesInsteadOfWrapping)
{
    EXPECT_EQ(cycleBudget(0), 100'000u);
    EXPECT_EQ(cycleBudget(20'000), 20'000u * 200 + 100'000);
    const InstCount lastExact = (neverCycle - 100'000) / 200;
    EXPECT_EQ(cycleBudget(lastExact), lastExact * 200 + 100'000);
    EXPECT_EQ(cycleBudget(lastExact + 1), neverCycle);
    EXPECT_EQ(cycleBudget(UINT64_MAX), neverCycle)
        << "UINT64_MAX * 200 + 100000 used to wrap to 99,800 cycles";
}

TEST(CycleBudget, SaturatedBudgetAfterEarlierCyclesStillRuns)
{
    // run()'s last cycle is startCycle + maxCycles: once the core has
    // simulated any cycles, a saturated budget must not wrap into the
    // past and end the run at once.
    const isa::Program *prog =
        wload::cachedProgram(wload::profileByName("mcf"), true);
    OooCpu cpu(paramsFor(RenamerKind::Vca, 192), {prog});
    cpu.run(1'000, cycleBudget(1'000));
    ASSERT_GT(cpu.currentCycle(), 0u);
    const RunResult res = cpu.run(2'000, cycleBudget(UINT64_MAX));
    EXPECT_GE(res.totalInsts, 2'000u);
}

// ---------------------------------------------------------------------
// Switch-in: functional fast-forward of N instructions followed by
// state transfer must leave the detailed core on the exact
// architectural path — its commit stream from that point is
// byte-identical to a pure detailed run's stream from instruction N.
// ---------------------------------------------------------------------

struct CommitRec
{
    Addr pc = 0;
    std::uint64_t value = 0;
    Addr addr = 0;

    bool
    operator==(const CommitRec &o) const
    {
        return pc == o.pc && value == o.value && addr == o.addr;
    }
};

void
attachRecorder(OooCpu &cpu, std::vector<std::vector<CommitRec>> &out)
{
    cpu.addCommitListener([&out](const DynInst &inst) {
        CommitRec r;
        r.pc = inst.pc;
        if (inst.si->hasDest && !inst.si->isCall)
            r.value = inst.result;
        if (inst.si->isMem())
            r.addr = inst.effAddr;
        out[inst.tid].push_back(r);
    });
}

void
switchInEquivalence(const std::vector<const isa::Program *> &progs,
                    RenamerKind kind, unsigned physRegs,
                    InstCount ffInsts, InstCount runInsts)
{
    const auto n = progs.size();
    const CpuParams params =
        CpuParams::preset(kind, physRegs, unsigned(n));

    // Reference: one detailed run from reset covering both spans.
    std::vector<std::vector<CommitRec>> ref(n);
    {
        OooCpu cpu(params, progs);
        attachRecorder(cpu, ref);
        cpu.run(ffInsts + runInsts,
                (ffInsts + runInsts) * 200 + 100'000);
    }

    // Candidate: fast-forward each thread functionally, switch in,
    // then run the detailed core.
    std::vector<std::unique_ptr<mem::SparseMemory>> fmem;
    std::vector<std::unique_ptr<func::FuncSim>> fsim;
    for (size_t t = 0; t < n; ++t) {
        fmem.push_back(std::make_unique<mem::SparseMemory>());
        fsim.push_back(
            std::make_unique<func::FuncSim>(*progs[t], *fmem[t]));
        fsim[t]->run(ffInsts);
        ASSERT_FALSE(fsim[t]->halted())
            << "thread " << t << " too short for the fast-forward";
    }
    OooCpu cpu(params, progs);
    std::vector<std::vector<CommitRec>> got(n);
    attachRecorder(cpu, got);
    for (size_t t = 0; t < n; ++t)
        cpu.switchIn(ThreadId(t), fsim[t]->captureState(), *fmem[t]);
    cpu.run(runInsts, runInsts * 200 + 100'000);

    for (size_t t = 0; t < n; ++t) {
        ASSERT_GT(ref[t].size(), size_t(ffInsts))
            << "thread " << t << " reference run too short";
        ASSERT_FALSE(got[t].empty()) << "thread " << t;
        const size_t overlap = std::min(got[t].size(),
                                        ref[t].size() - size_t(ffInsts));
        ASSERT_GE(overlap, size_t(runInsts) / 2) << "thread " << t;
        for (size_t i = 0; i < overlap; ++i) {
            const CommitRec &want = ref[t][size_t(ffInsts) + i];
            const CommitRec &have = got[t][i];
            ASSERT_TRUE(have == want)
                << "thread " << t << " diverged at commit " << i
                << ": ref pc=" << want.pc << " val=" << want.value
                << " addr=" << want.addr << " vs pc=" << have.pc
                << " val=" << have.value << " addr=" << have.addr;
        }
    }
    cpu.renamer().validate();
}

TEST(SwitchIn, BaselineNonWindowed)
{
    switchInEquivalence(
        {wload::cachedProgram(wload::profileByName("crafty"), false)},
        RenamerKind::Baseline, 256, 3'000, 4'000);
}

TEST(SwitchIn, ConvWindowWindowed)
{
    switchInEquivalence(
        {wload::cachedProgram(wload::profileByName("crafty"), true)},
        RenamerKind::ConvWindow, 256, 3'000, 4'000);
}

TEST(SwitchIn, IdealWindowWindowed)
{
    switchInEquivalence(
        {wload::cachedProgram(wload::profileByName("crafty"), true)},
        RenamerKind::IdealWindow, 256, 3'000, 4'000);
}

TEST(SwitchIn, VcaWindowed)
{
    switchInEquivalence(
        {wload::cachedProgram(wload::profileByName("crafty"), true)},
        RenamerKind::Vca, 192, 3'000, 4'000);
}

TEST(SwitchIn, VcaNonWindowedBinary)
{
    switchInEquivalence(
        {wload::cachedProgram(wload::profileByName("crafty"), false)},
        RenamerKind::Vca, 192, 3'000, 4'000);
}

TEST(SwitchIn, CallHeavyDeepWindowStack)
{
    // A call-heavy binary fast-forwarded mid-recursion exercises the
    // multi-frame window reconstruction in the conventional-window
    // renamer and the wbp rebasing in the VCA renamer.
    for (RenamerKind kind :
         {RenamerKind::ConvWindow, RenamerKind::Vca}) {
        switchInEquivalence(
            {wload::cachedProgram(wload::profileByName("perlbmk_535"),
                                  true)},
            kind, 256, 5'000, 4'000);
    }
}

TEST(SwitchIn, SmtTwoThreadsVca)
{
    switchInEquivalence(
        {wload::cachedProgram(wload::profileByName("crafty"), true),
         wload::cachedProgram(wload::profileByName("mesa"), true)},
        RenamerKind::Vca, 192, 2'000, 3'000);
}

TEST(SwitchIn, SmtTwoThreadsBaseline)
{
    switchInEquivalence(
        {wload::cachedProgram(wload::profileByName("crafty"), false),
         wload::cachedProgram(wload::profileByName("mesa"), false)},
        RenamerKind::Baseline, 256, 2'000, 3'000);
}

TEST(SwitchIn, AbiMismatchPanics)
{
    const isa::Program *windowed =
        wload::cachedProgram(wload::profileByName("crafty"), true);
    const isa::Program *flat =
        wload::cachedProgram(wload::profileByName("crafty"), false);
    mem::SparseMemory fm;
    func::FuncSim sim(*flat, fm);
    sim.run(100);
    OooCpu cpu(paramsFor(RenamerKind::Vca, 192), {windowed});
    EXPECT_THROW(cpu.switchIn(0, sim.captureState(), fm), PanicError);
}

/** What a core did over one measured run after a switch-in. */
struct RunDump
{
    std::vector<std::vector<CommitRec>> commits;
    std::string stats;   ///< text dump
    std::string json;    ///< stats JSON of the cpu tree
    std::string renamer; ///< test::renamerState()
    Cycle cycles = 0;
    Cycle skipped = 0;
};

/** Switch every thread in from its functional master, warm up, reset
 *  the statistics and measure, recording what `dump` compares. */
void
runAfterSwitchIn(OooCpu &cpu,
                 const std::vector<std::unique_ptr<func::FuncSim>> &fsim,
                 const std::vector<std::unique_ptr<mem::SparseMemory>> &fmem,
                 RunDump &dump)
{
    const size_t n = fsim.size();
    dump.commits.assign(n, {});
    attachRecorder(cpu, dump.commits);
    for (size_t t = 0; t < n; ++t)
        cpu.switchIn(ThreadId(t), fsim[t]->captureState(), *fmem[t]);
    const bool smt = n > 1;
    cpu.run(1'000, cycleBudget(1'000), smt);
    cpu.resetStats();
    cpu.run(3'000, cycleBudget(3'000), smt);

    std::ostringstream text;
    cpu.dump(text);
    dump.stats = text.str();
    std::ostringstream json;
    {
        trace::JsonWriter w(json);
        w.beginObject();
        trace::writeJsonGroup(cpu, w);
        w.endObject();
    }
    dump.json = json.str();
    dump.renamer = test::renamerState(cpu);
    dump.cycles = cpu.currentCycle();
    dump.skipped = cpu.skippedCycles();
    cpu.renamer().validate();
}

/** Length of drainProgram()'s straight-line prologue. */
constexpr InstCount kStraightInsts = 4'000;

/**
 * A straight-line prologue of kStraightInsts loads, stores and adds
 * over a few pages (so every renamer allocates and frees registers),
 * then an endless loop that calls a function
 * and takes a data-dependent branch. A core that commits less than
 * the prologue minus its fetch run-ahead never fetches a control
 * instruction, so its branch predictor stays as constructed.
 */
isa::Program
drainProgram(bool windowed)
{
    using isa::Opcode;
    AsmBuilder b;
    b.li(9, 0x400000);
    for (unsigned i = 0; i < kStraightInsts; ++i) {
        const auto rd = RegIndex(10 + i % 16);
        const auto rs = RegIndex(10 + (i * 7 + 3) % 16);
        const auto off = std::int32_t(i * 72 % 8'000);
        if (i % 4 == 0)
            b.ld(rd, 9, off);
        else if (i % 4 == 1)
            b.st(9, rs, off);
        else
            b.emitR(Opcode::Add, rd, rd, rs);
    }
    const auto loop = b.newLabel();
    const auto skip = b.newLabel();
    const auto func = b.newLabel();
    b.bind(loop);
    b.call(func);
    b.addi(7, 7, 1);
    b.emitI(Opcode::Andi, 8, 7, 3);
    b.branch(Opcode::Beq, 8, isa::regZero, skip);
    b.st(9, 7, 8);
    b.bind(skip);
    b.jmp(loop);
    b.bind(func);
    b.emitR(Opcode::Add, 4, 4, 7);
    b.ld(5, 9, 16);
    b.ret();
    return makeProgram(b, windowed);
}

/**
 * One core runs a quantum inside drainProgram()'s prologue, is drained
 * and is switched in inside its loop; a fresh core switched in at that
 * point must then do exactly what it does. The quantum leaves the
 * predictor as constructed and the kept core's caches are invalidated,
 * so both cores start from the same cache and predictor state and only
 * transient state the drain missed could tell them apart.
 */
void
drainedMatchesFresh(RenamerKind kind, unsigned physRegs, bool windowed,
                    unsigned threads, unsigned extraTicks)
{
    const isa::Program prog = drainProgram(windowed);
    const std::vector<const isa::Program *> progs(threads, &prog);
    const CpuParams params = paramsFor(kind, physRegs, threads);
    std::vector<std::unique_ptr<mem::SparseMemory>> fmem;
    std::vector<std::unique_ptr<func::FuncSim>> fsim;
    for (unsigned t = 0; t < threads; ++t) {
        fmem.push_back(std::make_unique<mem::SparseMemory>());
        fsim.push_back(std::make_unique<func::FuncSim>(prog, *fmem[t]));
        fsim[t]->run(500);
    }

    OooCpu kept(params, progs);
    for (unsigned t = 0; t < threads; ++t)
        kept.switchIn(ThreadId(t), fsim[t]->captureState(), *fmem[t]);
    const RunResult quantum =
        kept.run(2'000, cycleBudget(2'000), threads > 1);
    ASSERT_GT(quantum.totalInsts, 0u);
    // Ends the quantum in another round-robin phase.
    for (unsigned i = 0; i < extraTicks; ++i)
        kept.tick();
    ASSERT_EQ(kept.branchPredictor().lookups.value(), 0.0);
    ASSERT_EQ(kept.branchPredictor().tableOccupancy(), 0.0);
    for (unsigned t = 0; t < threads; ++t)
        fsim[t]->run(kStraightInsts + 2'500);
    kept.drain();
    kept.memSystem().invalidateAll();
    EXPECT_EQ(kept.currentCycle(), 0u);

    OooCpu fresh(params, progs);
    RunDump want, got;
    runAfterSwitchIn(fresh, fsim, fmem, want);
    runAfterSwitchIn(kept, fsim, fmem, got);

    for (unsigned t = 0; t < threads; ++t) {
        ASSERT_FALSE(want.commits[t].empty()) << "thread " << t;
        EXPECT_TRUE(got.commits[t] == want.commits[t]) << "thread " << t;
    }
    EXPECT_GT(fresh.branchPredictor().lookups.value(), 0.0);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.skipped, want.skipped);
    EXPECT_EQ(got.stats, want.stats);
    EXPECT_EQ(got.json, want.json);
    EXPECT_EQ(got.renamer, want.renamer);
}

TEST(SwitchIn, DrainedCoreMatchesFreshCore)
{
    const struct
    {
        RenamerKind kind;
        unsigned physRegs;
        bool windowed;
        unsigned threads;
        const char *name;
    } cases[] = {
        {RenamerKind::Baseline, 256, false, 1, "baseline"},
        {RenamerKind::ConvWindow, 256, true, 1, "register window"},
        {RenamerKind::IdealWindow, 256, true, 1, "ideal"},
        {RenamerKind::Vca, 192, true, 1, "vca"},
        {RenamerKind::Vca, 192, true, 2, "vca, 2 threads"},
    };
    for (const auto &c : cases) {
        for (unsigned extraTicks : {0u, 1u}) {
            SCOPED_TRACE(std::string(c.name) + ", +" +
                         std::to_string(extraTicks) + " ticks");
            drainedMatchesFresh(c.kind, c.physRegs, c.windowed,
                                c.threads, extraTicks);
        }
    }
}

TEST(SwitchIn, OnlyLegalBeforeFirstCycle)
{
    const isa::Program *prog =
        wload::cachedProgram(wload::profileByName("crafty"), false);
    mem::SparseMemory fm;
    func::FuncSim sim(*prog, fm);
    sim.run(100);
    OooCpu cpu(paramsFor(RenamerKind::Baseline, 256), {prog});
    cpu.run(50, 100'000);
    EXPECT_THROW(cpu.switchIn(0, sim.captureState(), fm), PanicError);
}

} // namespace
