/**
 * @file
 * Tests for the observability layer: debug flags and DPRINTF gating,
 * O3PipeView trace writing/parsing and its ordering invariants on a
 * real pipeline run, and interval statistics.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "cpu/ooo_cpu.hh"
#include "cpu/tracer.hh"
#include "trace/debug_flags.hh"
#include "trace/interval_stats.hh"
#include "trace/pipe_trace.hh"
#include "wload/generator.hh"
#include "wload/profile.hh"

namespace {

using namespace vca;

/** Resets flag and stream state around every test. */
class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace::clearAllFlags();
        trace::setTraceStream(&captured_);
    }
    void
    TearDown() override
    {
        trace::clearAllFlags();
        trace::setTraceStream(nullptr);
    }
    std::string text() const { return captured_.str(); }

    std::ostringstream captured_;
};

// ---------------------------------------------------------------------
// Flag registry / parsing
// ---------------------------------------------------------------------

TEST_F(TraceTest, FlagsStartDisabled)
{
    EXPECT_FALSE(trace::anyFlagEnabled());
    for (const auto &info : trace::allFlags())
        EXPECT_FALSE(trace::flagEnabled(info.flag)) << info.name;
}

TEST_F(TraceTest, SetFlagsFromCommaList)
{
    trace::setFlagsFromString("Rename,Commit");
    EXPECT_TRUE(trace::flagEnabled(trace::Flag::Rename));
    EXPECT_TRUE(trace::flagEnabled(trace::Flag::Commit));
    EXPECT_FALSE(trace::flagEnabled(trace::Flag::Fetch));
    const auto names = trace::enabledFlagNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "Rename");
    EXPECT_EQ(names[1], "Commit");
}

TEST_F(TraceTest, AllFansOutAndMinusSubtracts)
{
    trace::setFlagsFromString("All,-Cache");
    EXPECT_TRUE(trace::flagEnabled(trace::Flag::Fetch));
    EXPECT_TRUE(trace::flagEnabled(trace::Flag::VcaCache));
    EXPECT_FALSE(trace::flagEnabled(trace::Flag::Cache));
    trace::clearAllFlags();
    EXPECT_FALSE(trace::anyFlagEnabled());
}

TEST_F(TraceTest, UnknownFlagIsFatal)
{
    EXPECT_THROW(trace::setFlagsFromString("Commit,Bogus"),
                 FatalError);
    EXPECT_FALSE(trace::setFlagByName("Bogus", true));
}

TEST_F(TraceTest, FlagHelpListsEveryFlag)
{
    const std::string help = trace::flagHelp();
    for (const auto &info : trace::allFlags())
        EXPECT_NE(help.find(info.name), std::string::npos) << info.name;
}

// ---------------------------------------------------------------------
// DPRINTF gating and formatting (compiled out under VCA_NTRACE)
// ---------------------------------------------------------------------

#ifndef VCA_NTRACE

TEST_F(TraceTest, DprintfIsGatedByItsFlag)
{
    DPRINTF(Commit, "must not appear %d", 1);
    EXPECT_TRUE(text().empty());

    trace::setFlag(trace::Flag::Commit, true);
    trace::setTraceCycle(42);
    DPRINTF(Commit, "retired %d", 7);
    DPRINTF(Fetch, "still disabled");
    EXPECT_EQ(text(), "42: Commit: retired 7\n");
}

TEST_F(TraceTest, DprintfDoesNotEvaluateArgsWhenDisabled)
{
    int evals = 0;
    auto bump = [&evals] { return ++evals; };
    DPRINTF(Rename, "%d", bump());
    EXPECT_EQ(evals, 0);
    trace::setFlag(trace::Flag::Rename, true);
    DPRINTF(Rename, "%d", bump());
    EXPECT_EQ(evals, 1);
}

TEST_F(TraceTest, DprintftStampsThread)
{
    trace::setFlag(trace::Flag::Squash, true);
    trace::setTraceCycle(9);
    DPRINTFT(Squash, 3, "flush after seq=%d", 17);
    EXPECT_EQ(text(), "9: T3: Squash: flush after seq=17\n");
}

#endif // !VCA_NTRACE

// ---------------------------------------------------------------------
// O3PipeView records
// ---------------------------------------------------------------------

trace::PipeRecord
sampleRecord()
{
    trace::PipeRecord rec;
    rec.seq = 12;
    rec.tid = 1;
    rec.pc = 0x40;
    rec.fetch = 100;
    rec.decode = 103;
    rec.rename = 104;
    rec.dispatch = 104;
    rec.issue = 106;
    rec.complete = 108;
    rec.commit = 110;
    rec.isStore = true;
    rec.storeComplete = 110;
    rec.disasm = "st r2, 8(r3)";
    return rec;
}

TEST_F(TraceTest, PipeTraceWriterEmitsO3PipeViewFormat)
{
    std::ostringstream os;
    trace::PipeTraceWriter writer(os);
    writer.write(sampleRecord());
    EXPECT_EQ(writer.recordsWritten(), 1u);
    const std::string out = os.str();
    EXPECT_NE(out.find("O3PipeView:fetch:100000:0x"), std::string::npos);
    EXPECT_NE(out.find(":1:12:st r2, 8(r3)"), std::string::npos);
    EXPECT_NE(out.find("O3PipeView:retire:110000:store:110000"),
              std::string::npos);
}

TEST_F(TraceTest, PipeTraceRoundTrips)
{
    std::ostringstream os;
    trace::PipeTraceWriter writer(os);
    writer.write(sampleRecord());

    std::istringstream is("unrelated line\n" + os.str());
    std::vector<trace::PipeRecord> parsed;
    std::string error;
    ASSERT_TRUE(trace::parsePipeTrace(is, parsed, &error)) << error;
    ASSERT_EQ(parsed.size(), 1u);
    const trace::PipeRecord &rec = parsed[0];
    EXPECT_EQ(rec.seq, 12u);
    EXPECT_EQ(rec.tid, 1u);
    EXPECT_EQ(rec.pc, 0x40u);
    EXPECT_EQ(rec.fetch, 100u);
    EXPECT_EQ(rec.issue, 106u);
    EXPECT_EQ(rec.commit, 110u);
    EXPECT_TRUE(rec.isStore);
    EXPECT_EQ(rec.storeComplete, 110u);
    EXPECT_EQ(rec.disasm, "st r2, 8(r3)");
    EXPECT_TRUE(rec.monotonic());
}

TEST_F(TraceTest, InstantRecordsAreCountedAndSkipped)
{
    std::ostringstream os;
    trace::PipeTraceWriter writer(os);
    writer.instant("window_overflow", 95);
    writer.write(sampleRecord());
    writer.instant("transfers spills=3 fills=2", 120);
    EXPECT_EQ(writer.instantsWritten(), 2u);
    EXPECT_NE(os.str().find("O3PipeView:instant:95000:window_overflow"),
              std::string::npos);

    std::istringstream is(os.str());
    std::vector<trace::PipeRecord> parsed;
    std::string error;
    std::uint64_t unknown = 0;
    ASSERT_TRUE(trace::parsePipeTrace(is, parsed, &error, 1000,
                                      &unknown))
        << error;
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(unknown, 2u) << "instants count as unknown record types";
    EXPECT_EQ(parsed[0].seq, 12u);
}

TEST_F(TraceTest, MonotonicRejectsReorderedStages)
{
    trace::PipeRecord rec = sampleRecord();
    EXPECT_TRUE(rec.monotonic());
    rec.issue = rec.complete + 1;
    EXPECT_FALSE(rec.monotonic());
}

// ---------------------------------------------------------------------
// Pipeline-order invariants on a real run
// ---------------------------------------------------------------------

TEST_F(TraceTest, RealRunSatisfiesStageOrderInvariants)
{
    const isa::Program *prog = wload::cachedProgram(
        wload::profileByName("crafty"), false);
    cpu::CpuParams params =
        cpu::CpuParams::preset(cpu::RenamerKind::Baseline, 256, 1);
    cpu::OooCpu cpu(params, {prog});

    std::ostringstream os;
    cpu::attachPipeTracer(cpu, os);
    cpu.run(5'000, 1'000'000);

    std::istringstream is(os.str());
    std::vector<trace::PipeRecord> records;
    std::string error;
    ASSERT_TRUE(trace::parsePipeTrace(is, records, &error)) << error;
    ASSERT_GE(records.size(), 5'000u);

    Cycle lastCommit = 0;
    std::uint64_t lastSeq = 0;
    for (const auto &rec : records) {
        // fetch <= decode <= rename <= dispatch <= issue <= complete
        // <= retire, for every committed instruction.
        EXPECT_TRUE(rec.monotonic())
            << "seq " << rec.seq << ": " << rec.disasm;
        // Records appear in commit order.
        EXPECT_GE(rec.commit, lastCommit);
        EXPECT_GT(rec.seq, lastSeq);
        lastCommit = rec.commit;
        lastSeq = rec.seq;
        if (rec.isStore) {
            EXPECT_GE(rec.storeComplete, rec.commit);
        }
    }
}

TEST_F(TraceTest, VcaRunSatisfiesStageOrderInvariants)
{
    const isa::Program *prog = wload::cachedProgram(
        wload::profileByName("crafty"), true);
    cpu::CpuParams params =
        cpu::CpuParams::preset(cpu::RenamerKind::Vca, 128, 1);
    cpu::OooCpu cpu(params, {prog});

    std::ostringstream os;
    cpu::attachPipeTracer(cpu, os, 3'000);
    cpu.run(5'000, 1'000'000);

    std::istringstream is(os.str());
    std::vector<trace::PipeRecord> records;
    ASSERT_TRUE(trace::parsePipeTrace(is, records));
    ASSERT_EQ(records.size(), 3'000u) << "maxInsts cap";
    for (const auto &rec : records)
        EXPECT_TRUE(rec.monotonic()) << "seq " << rec.seq;
}

// ---------------------------------------------------------------------
// Interval statistics
// ---------------------------------------------------------------------

TEST_F(TraceTest, IntervalRecorderClosesEveryN)
{
    trace::IntervalRecorder rec(10);
    double probeValue = 0;
    rec.addProbe("probe", [&probeValue] { return probeValue; });

    Cycle now = 100;
    for (int i = 0; i < 25; ++i) {
        probeValue += 2;
        rec.onCommit(now);
        now += 3;
    }
    rec.finish(now);

    ASSERT_EQ(rec.records().size(), 3u);
    const auto &r0 = rec.records()[0];
    EXPECT_EQ(r0.index, 0u);
    EXPECT_EQ(r0.committed, 10u);
    EXPECT_EQ(r0.committedCum, 10u);
    EXPECT_GT(r0.ipc, 0.0);
    ASSERT_EQ(r0.probes.size(), 1u);
    // First commit anchors the window: 9 further commits at +2 each.
    EXPECT_DOUBLE_EQ(r0.probes[0], 18.0);

    const auto &r1 = rec.records()[1];
    EXPECT_EQ(r1.committed, 10u);
    EXPECT_EQ(r1.committedCum, 20u);
    EXPECT_DOUBLE_EQ(r1.probes[0], 20.0);

    // finish() closes the 5-commit partial interval and flags it so
    // consumers do not weight it like a full interval.
    const auto &r2 = rec.records()[2];
    EXPECT_EQ(r2.committed, 5u);
    EXPECT_EQ(r2.committedCum, 25u);
    EXPECT_FALSE(r0.partial);
    EXPECT_FALSE(r1.partial);
    EXPECT_TRUE(r2.partial);
}

TEST_F(TraceTest, IntervalRecorderExactBoundaryIsNotPartial)
{
    trace::IntervalRecorder rec(10);
    Cycle now = 0;
    for (int i = 0; i < 20; ++i) {
        rec.onCommit(now);
        now += 2;
    }
    rec.finish(now);

    // The run ends exactly on an interval boundary: finish() must not
    // add an empty record, and no record is partial.
    ASSERT_EQ(rec.records().size(), 2u);
    for (const auto &r : rec.records())
        EXPECT_FALSE(r.partial);
}

TEST_F(TraceTest, IntervalRecorderOnRealCpu)
{
    const isa::Program *prog = wload::cachedProgram(
        wload::profileByName("crafty"), false);
    cpu::CpuParams params =
        cpu::CpuParams::preset(cpu::RenamerKind::Baseline, 256, 1);
    cpu::OooCpu cpu(params, {prog});

    trace::IntervalRecorder rec(1'000);
    rec.addProbe("dcache_accesses", [&cpu] {
        return cpu.memSystem().dcache().accesses.value();
    });
    cpu.addCommitListener([&cpu, &rec](const cpu::DynInst &) {
        rec.onCommit(cpu.currentCycle());
    });
    auto res = cpu.run(10'500, 1'000'000);
    rec.finish(cpu.currentCycle());

    ASSERT_GE(rec.records().size(), 10u);
    std::uint64_t cum = 0;
    Cycle lastEnd = 0;
    for (const auto &r : rec.records()) {
        cum += r.committed;
        EXPECT_EQ(r.committedCum, cum);
        EXPECT_GE(r.startCycle, lastEnd);
        EXPECT_GT(r.endCycle, r.startCycle);
        const double ipc = double(r.committed) /
                           double(r.endCycle - r.startCycle);
        EXPECT_NEAR(r.ipc, ipc, 1e-9);
        EXPECT_GE(r.probes.at(0), 0.0);
        lastEnd = r.endCycle;
    }
    EXPECT_EQ(cum, res.totalInsts);
}

TEST_F(TraceTest, IntervalRecorderRejectsZeroLength)
{
    EXPECT_THROW(trace::IntervalRecorder(0), FatalError);
}

} // namespace
