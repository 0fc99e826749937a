/**
 * @file
 * Partition invariants of the hierarchical cycle taxonomy (ctest
 * label: observability).
 *
 * The contract behind vca-explain's exact attribution: on every
 * architecture and thread count, the machine-level taxonomy leaves
 * sum exactly to cpu.cycles, every per-thread subtree independently
 * sums exactly to cpu.cycles, and each flat commit-stall bucket
 * Formula reads exactly its leaves (the six equalities documented on
 * CycleAccounting). All of it must survive a stat reset.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cpu/ooo_cpu.hh"
#include "cpu/params.hh"
#include "sim/logging.hh"
#include "wload/generator.hh"
#include "wload/profile.hh"

namespace {

using namespace vca;
using cpu::RenamerKind;

struct Config
{
    const char *name;
    RenamerKind kind;
    unsigned physRegs;
    unsigned threads;
};

// The conventional register-window renamer needs more physical
// registers than the 128 logical ones, hence the larger files.
const Config kConfigs[] = {
    {"baseline/256/1t", RenamerKind::Baseline, 256, 1},
    {"ideal/192/1t", RenamerKind::IdealWindow, 192, 1},
    {"regwindow/192/1t", RenamerKind::ConvWindow, 192, 1},
    {"vca/192/1t", RenamerKind::Vca, 192, 1},
    {"baseline/320/2t", RenamerKind::Baseline, 320, 2},
    {"ideal/256/2t", RenamerKind::IdealWindow, 256, 2},
    {"vca/192/2t", RenamerKind::Vca, 192, 2},
};

bool
windowedBinary(RenamerKind kind)
{
    return kind != RenamerKind::Baseline;
}

std::unique_ptr<cpu::OooCpu>
makeCpu(const Config &config)
{
    static const char *benches[] = {"crafty", "mesa"};
    std::vector<const isa::Program *> programs;
    for (unsigned t = 0; t < config.threads; ++t)
        programs.push_back(wload::cachedProgram(
            wload::profileByName(benches[t]),
            windowedBinary(config.kind)));
    cpu::CpuParams params = cpu::CpuParams::preset(
        config.kind, config.physRegs, config.threads);
    return std::make_unique<cpu::OooCpu>(params, programs);
}

void
expectPartition(const cpu::OooCpu &cpu, const std::string &where)
{
    const double cycles = cpu.numCycles.value();
    const auto &ca = cpu.cycleAccounting;
    const auto &tax = ca.taxonomy;

    EXPECT_GT(cycles, 0.0) << where;
    EXPECT_DOUBLE_EQ(tax.leafSum(), cycles)
        << where << ": machine taxonomy must partition cpu.cycles";
    for (unsigned t = 0; t < tax.numThreads(); ++t)
        EXPECT_DOUBLE_EQ(tax.thread(t).leafSum(), cycles)
            << where << ": thread" << t
            << " taxonomy must partition cpu.cycles";

    // Each flat bucket Formula sums exactly its leaves.
    EXPECT_DOUBLE_EQ(tax.retiring.value(), ca.commitActive.value())
        << where;
    EXPECT_DOUBLE_EQ(tax.icache.value() + tax.fetch.value(),
                     ca.frontendStall.value())
        << where;
    EXPECT_DOUBLE_EQ(tax.recovery.value() + tax.windowTrap.value(),
                     ca.windowShift.value())
        << where;
    EXPECT_DOUBLE_EQ(tax.exec.value() + tax.fillLatency.value(),
                     ca.execStall.value())
        << where;
    EXPECT_DOUBLE_EQ(tax.dcache.value() + tax.storeDrain.value(),
                     ca.memStall.value())
        << where;
    EXPECT_DOUBLE_EQ(tax.spillStall.value() +
                         tax.renameFreeList.value(),
                     ca.renameFreeList.value())
        << where;
    // The machine-level tree has no idle: some thread always owns
    // the cycle's classification while the simulation is running.
    EXPECT_DOUBLE_EQ(tax.idle.value(), 0.0) << where;
}

TEST(CycleTaxonomy, LeavesPartitionCyclesOnEveryArchitecture)
{
    for (const Config &config : kConfigs) {
        SCOPED_TRACE(config.name);
        auto cpu = makeCpu(config);
        cpu->run(20'000, 2'000'000);
        expectPartition(*cpu, config.name);
    }
}

TEST(CycleTaxonomy, TwoThreadConvWindowsStayInoperable)
{
    // The conventional register-window machine cannot run SMT at any
    // register-file size: its logical space (globals + every window,
    // per thread) grows with the physical file, so the "more physical
    // than logical registers" requirement is unsatisfiable -- the
    // paper's "No Baseline" cases. Pin that down so the taxonomy
    // matrix above documents why it has no regwindow/2t row.
    for (unsigned regs : {192u, 384u, 640u})
        EXPECT_THROW(makeCpu({"regwindow/2t", RenamerKind::ConvWindow,
                              regs, 2}),
                     FatalError);
}

TEST(CycleTaxonomy, PartitionSurvivesStatReset)
{
    for (const Config &config : {kConfigs[2], kConfigs[3]}) {
        SCOPED_TRACE(config.name);
        auto cpu = makeCpu(config);
        cpu->run(5'000, 500'000);
        cpu->resetStats();

        EXPECT_DOUBLE_EQ(cpu->cycleAccounting.taxonomy.leafSum(), 0.0)
            << "reset must zero the whole taxonomy subtree";
        for (unsigned t = 0;
             t < cpu->cycleAccounting.taxonomy.numThreads(); ++t)
            EXPECT_DOUBLE_EQ(
                cpu->cycleAccounting.taxonomy.thread(t).leafSum(),
                0.0);

        // The measured interval after the reset re-establishes the
        // partition from a clean slate (the vca-sim warmup pattern).
        cpu->run(15'000, 1'500'000);
        expectPartition(*cpu, std::string(config.name) +
                                  " after reset");
    }
}

TEST(CycleTaxonomy, VcaActivatesItsSpecificLeaves)
{
    // Under heavy register pressure the VCA-specific leaves must see
    // traffic: fill latency at the ROB head is a renamer-architecture
    // effect no generic top-down taxonomy would expose.
    Config config{"vca/40/1t", RenamerKind::Vca, 40, 1};
    auto cpu = makeCpu(config);
    cpu->run(30'000, 3'000'000);
    expectPartition(*cpu, config.name);
    EXPECT_GT(cpu->cycleAccounting.taxonomy.fillLatency.value(), 0.0)
        << "a 40-register VCA file must stall on in-flight fills";
}

} // namespace
