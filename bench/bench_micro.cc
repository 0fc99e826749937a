/**
 * @file
 * google-benchmark microbenchmarks for the simulator's own hot paths:
 * decode, functional execution, cache access, branch prediction, and
 * whole-pipeline throughput per architecture. These guard the
 * simulator's performance (the figure sweeps run hundreds of detailed
 * simulations) rather than reproducing a paper result.
 *
 * The microbenchmark loops deliberately bypass the sweep runner and
 * its result cache: they measure the simulator's wall-clock speed, so
 * memoization would measure nothing. The cycle-accounting epilogue
 * does go through the runner like every other bench.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_common.hh"
#include "bpred/bpred.hh"
#include "cpu/ooo_cpu.hh"
#include "func/func_sim.hh"
#include "isa/program.hh"
#include "mem/cache.hh"
#include "sim/rng.hh"
#include "wload/generator.hh"
#include "wload/profile.hh"

using namespace vca;

namespace {

void
BM_Decode(benchmark::State &state)
{
    const isa::Program *prog = wload::cachedProgram(
        wload::profileByName("crafty"), false);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(isa::decode(prog->code[i]));
        i = (i + 1) % prog->code.size();
    }
}
BENCHMARK(BM_Decode);

void
BM_FunctionalSim(benchmark::State &state)
{
    const isa::Program *prog = wload::cachedProgram(
        wload::profileByName("crafty"), false);
    auto memory = std::make_unique<mem::SparseMemory>();
    auto sim = std::make_unique<func::FuncSim>(*prog, *memory);
    func::StepRecord rec;
    for (auto _ : state) {
        if (!sim->step(rec)) {
            state.PauseTiming();
            sim.reset();
            memory = std::make_unique<mem::SparseMemory>();
            sim = std::make_unique<func::FuncSim>(*prog, *memory);
            state.ResumeTiming();
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FunctionalSim);

/** Whole-program run() (the path-length and fast-forward engine).
 *  Arg(0) is crafty's flat binary, Arg(1) its windowed one; Arg(2)
 *  runs all 44 bundled binaries (every benchmark, both ABIs) per
 *  iteration, the figure benches' path-length step on its own. Items
 *  are instructions, so the rate is the engine's instructions/s. */
void
BM_FunctionalRun(benchmark::State &state)
{
    std::vector<const isa::Program *> progs;
    if (state.range(0) == 2) {
        for (const wload::BenchProfile &prof : wload::spec2000Profiles())
            for (const bool windowed : {false, true})
                progs.push_back(wload::cachedProgram(prof, windowed));
    } else {
        progs.push_back(wload::cachedProgram(
            wload::profileByName("crafty"), state.range(0) != 0));
    }
    InstCount insts = 0;
    for (auto _ : state) {
        for (const isa::Program *prog : progs) {
            mem::SparseMemory memory;
            func::FuncSim sim(*prog, memory);
            insts += sim.run().insts;
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(insts));
}
BENCHMARK(BM_FunctionalRun)->Arg(0)->Arg(1)->Arg(2)->Unit(
    benchmark::kMillisecond);

/** One cache access per iteration. Arg(0): random data addresses over
 *  4 MiB, each a full tag check. Arg(1): instruction fetch around a
 *  32 KiB loop that fits in the L1I, one 4-byte code word per access,
 *  so 15 of every 16 accesses repeat the last line (the MRU path). */
void
BM_CacheAccess(benchmark::State &state)
{
    stats::StatGroup root("bench");
    mem::MemSystem ms(mem::MemSystemParams{}, &root);
    Rng rng(42);
    Cycle now = 0;
    if (state.range(0) == 0) {
        for (auto _ : state) {
            const Addr addr = rng.below(1 << 22);
            benchmark::DoNotOptimize(ms.dataAccess(addr, false, now));
            now += 1;
        }
    } else {
        Addr pc = 0;
        for (auto _ : state) {
            benchmark::DoNotOptimize(
                ms.instAccess(isa::layout::pcToAddr(pc), now));
            pc = (pc + 1) & ((1 << 13) - 1);
            now += 1;
        }
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(0)->Arg(1);

void
BM_BranchPredict(benchmark::State &state)
{
    stats::StatGroup root("bench");
    bpred::BranchPredictor bp(bpred::BPredParams{}, 1, &root);
    bpred::BPredCheckpoint ckpt;
    Rng rng(7);
    for (auto _ : state) {
        const Addr pc = rng.below(4096);
        const bool pred = bp.predict(0, pc, ckpt);
        const bool actual = (pc & 3) != 0;
        bp.update(0, pc, actual, ckpt.history);
        if (pred != actual)
            bp.repairHistory(0, ckpt, actual);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BranchPredict);

/**
 * Host cost of one tick(), with idle-cycle skipping out of the way.
 * range(0) is the renamer, range(1) the thread count: one thread runs
 * crafty at 256 registers; four run the memory-bound SMT mix (mcf,
 * gcc_expr, parser, gap, flat ABI) at 192, where VCA is short of
 * registers and refused renames look for replacement victims.
 *
 * Every repetition builds a fresh core and ticks it a fixed number of
 * cycles, so repetitions time the same simulated region and can be
 * compared (--benchmark_repetitions=N reports their spread).
 */
void
BM_PipelineThroughput(benchmark::State &state)
{
    setQuiet(true);
    const auto kind = static_cast<cpu::RenamerKind>(state.range(0));
    const unsigned threads = static_cast<unsigned>(state.range(1));
    std::vector<const isa::Program *> progs;
    if (threads == 1) {
        progs.push_back(wload::cachedProgram(
            wload::profileByName("crafty"),
            kind != cpu::RenamerKind::Baseline));
    } else {
        for (const char *name : {"mcf", "gcc_expr", "parser", "gap"}) {
            progs.push_back(wload::cachedProgram(
                wload::profileByName(name), false));
        }
    }
    cpu::CpuParams params =
        cpu::CpuParams::preset(kind, threads == 1 ? 256 : 192, threads);
    cpu::OooCpu cpu(params, progs);
    for (auto _ : state) {
        cpu.tick();
        benchmark::DoNotOptimize(cpu.currentCycle());
    }
    InstCount committed = 0;
    for (unsigned t = 0; t < threads; ++t)
        committed += cpu.committedInsts(static_cast<ThreadId>(t));
    state.SetItemsProcessed(static_cast<std::int64_t>(committed));
    state.counters["ipc"] = benchmark::Counter(
        static_cast<double>(committed) /
        static_cast<double>(state.iterations()));
}
BENCHMARK(BM_PipelineThroughput)
    ->Args({static_cast<int>(cpu::RenamerKind::Baseline), 1})
    ->Args({static_cast<int>(cpu::RenamerKind::ConvWindow), 1})
    ->Args({static_cast<int>(cpu::RenamerKind::IdealWindow), 1})
    ->Args({static_cast<int>(cpu::RenamerKind::Vca), 1})
    ->Args({static_cast<int>(cpu::RenamerKind::Vca), 4})
    ->Iterations(50'000);

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    bench::printCycleAccounting(bench::regWindowArchs(), 192,
                                bench::defaultOptions());
    return bench::finishBench();
}
