/**
 * @file
 * Tests for the differential run explainer (ctest label:
 * observability): exact CPI-gap attribution, stats-JSON ingestion
 * (and its refusal of documents it cannot attribute), Measurement
 * projection, interval alignment, and the planted-gap selftest
 * vca-explain --selftest runs in CI.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "analysis/explain.hh"
#include "cpu/ooo_cpu.hh"
#include "sim/logging.hh"

namespace {

using namespace vca;
using analysis::ExplainInput;
using analysis::ExplainReport;

ExplainInput
syntheticRun(const char *label, double cycles, double spillCycles)
{
    ExplainInput in;
    in.label = label;
    in.insts = 50'000;
    in.cycles = cycles;
    in.leaves = {
        {"retiring", 50'000},
        {"backend_core.exec", 10'000},
        {"backend_memory.spill_stall", spillCycles},
        {"backend_memory.dcache", cycles - 60'000 - spillCycles},
    };
    return in;
}

TEST(Explain, AttributionsSumExactlyToTheGap)
{
    const ExplainInput a = syntheticRun("a", 80'000, 0);
    const ExplainInput b = syntheticRun("b", 95'000, 9'000);
    const ExplainReport r = analysis::explain(a, b);

    EXPECT_NEAR(r.gap, (95'000.0 - 80'000.0) / 50'000.0, 1e-12);
    EXPECT_NEAR(r.attributedFraction, 1.0, 1e-12);
    double sum = 0;
    for (const auto &att : r.attributions)
        sum += att.delta;
    EXPECT_NEAR(sum, r.gap, 1e-12);
    ASSERT_FALSE(r.attributions.empty());
    EXPECT_EQ(r.attributions[0].leaf, "backend_memory.spill_stall");
}

TEST(Explain, ZeroGapProducesZeroShares)
{
    const ExplainInput a = syntheticRun("a", 80'000, 0);
    const ExplainReport r = analysis::explain(a, a);
    EXPECT_DOUBLE_EQ(r.gap, 0.0);
    for (const auto &att : r.attributions) {
        EXPECT_DOUBLE_EQ(att.delta, 0.0);
        EXPECT_DOUBLE_EQ(att.share, 0.0);
    }
}

TEST(Explain, MeasurementProjectionUsesTaxonomyLeaves)
{
    analysis::Measurement m;
    m.ok = true;
    m.cycles = 1'000;
    m.insts = 500;
    using Buckets = cpu::TaxonomyBuckets;
    for (unsigned l = 0; l < Buckets::numLeaves; ++l)
        m.taxonomy.emplace_back(
            Buckets::leafName(static_cast<Buckets::Leaf>(l)), 0);
    m.taxonomy[0].second = 500;  // retiring
    m.taxonomy[9].second = 300;  // backend_memory.fill_latency
    m.taxonomy[10].second = 200; // backend_memory.spill_stall
    m.cycleBreakdown = analysis::deriveCycleBreakdown(m.taxonomy, m.cycles);
    const ExplainInput in = analysis::explainInputFromMeasurement(
        "m", "cfg", m);
    EXPECT_DOUBLE_EQ(in.cycles, 1'000);
    EXPECT_DOUBLE_EQ(in.insts, 500);
    EXPECT_EQ(in.leaves, m.taxonomy)
        << "cached points attribute at full leaf resolution";

    // The flat fractions are sums of those leaves.
    ASSERT_EQ(m.cycleBreakdown.size(), 6u);
    EXPECT_EQ(m.cycleBreakdown[0].first, "commit");
    EXPECT_DOUBLE_EQ(m.cycleBreakdown[0].second, 0.5);
    EXPECT_EQ(m.cycleBreakdown[2].first, "exec");
    EXPECT_DOUBLE_EQ(m.cycleBreakdown[2].second, 0.3);
    EXPECT_EQ(m.cycleBreakdown[3].first, "rename");
    EXPECT_DOUBLE_EQ(m.cycleBreakdown[3].second, 0.2);
}

TEST(Explain, LoadRunJsonPrefersTaxonomyAndReadsIntervals)
{
    namespace fs = std::filesystem;
    const std::string path =
        (fs::temp_directory_path() / "vca_test_explain_run.json")
            .string();
    {
        std::ofstream os(path);
        os << R"({
  "schemaVersion": 3,
  "config": {"arch": "vca", "regs": 192, "threads": 1,
             "mode": "detailed"},
  "summary": {"cycles": 200, "insts": 100, "ipc": 0.5},
  "cpu": {
    "cycles": 200,
    "cycle_accounting": {
      "commit_active": 100, "mem_stall": 60, "exec_stall": 20,
      "rename_freelist": 10, "window_shift": 0, "frontend": 10,
      "taxonomy": {
        "retiring": 100, "idle": 0,
        "frontend_bound": {"icache": 4, "fetch": 6},
        "bad_speculation": {"recovery": 0},
        "backend_core": {"exec": 20, "rename_freelist": 2},
        "backend_memory": {"dcache": 55, "store_drain": 5,
                           "fill_latency": 0, "spill_stall": 8,
                           "window_trap": 0},
        "thread0": {"retiring": 100}
      }
    }
  },
  "intervals": [
    {"interval": 0, "start_cycle": 0, "end_cycle": 100,
     "committed": 50, "committed_cum": 50, "ipc": 0.5,
     "partial": false, "tax.retiring": 50,
     "tax.backend_memory.spill_stall": 3},
    {"interval": 1, "start_cycle": 100, "end_cycle": 200,
     "committed": 50, "committed_cum": 100, "ipc": 0.5,
     "partial": true, "tax.retiring": 50,
     "tax.backend_memory.spill_stall": 5}
  ]
})";
    }

    const ExplainInput in = analysis::loadRunJson(path, "run");
    std::remove(path.c_str());

    EXPECT_EQ(in.label, "run");
    EXPECT_DOUBLE_EQ(in.cycles, 200);
    EXPECT_DOUBLE_EQ(in.insts, 100);
    EXPECT_NE(in.config.find("arch=vca"), std::string::npos);

    double taxSum = 0;
    bool sawThreadLeaf = false;
    for (const auto &[name, cycles] : in.leaves) {
        taxSum += cycles;
        if (name.rfind("thread", 0) == 0)
            sawThreadLeaf = true;
    }
    EXPECT_DOUBLE_EQ(taxSum, 200)
        << "machine-level taxonomy leaves partition summary.cycles";
    EXPECT_FALSE(sawThreadLeaf)
        << "per-thread subtrees must not double-count";

    ASSERT_EQ(in.intervals.size(), 2u);
    ASSERT_EQ(in.intervalLeafNames.size(), 2u);
    EXPECT_EQ(in.intervalLeafNames[0], "retiring");
    EXPECT_FALSE(in.intervals[0].partial);
    EXPECT_TRUE(in.intervals[1].partial);
    EXPECT_DOUBLE_EQ(in.intervals[1].leafCycles.at(1), 5);
}

/** Write `text` to a temp file, expect loadRunJson to refuse it with
 *  a message naming the file and containing `needle`. */
void
expectRejected(const char *file, const char *text, const char *needle)
{
    namespace fs = std::filesystem;
    const std::string path = (fs::temp_directory_path() / file).string();
    {
        std::ofstream os(path);
        os << text;
    }
    try {
        analysis::loadRunJson(path, "");
        ADD_FAILURE() << "loadRunJson accepted " << file;
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
    std::remove(path.c_str());
}

TEST(Explain, LoadRunJsonRejectsSampledDocument)
{
    // A non-detailed document has no cpu tree, hence no taxonomy:
    // attributing it would report 0% of the gap. Point to the modes
    // that can explain it instead.
    expectRejected("vca_test_explain_sampled.json", R"({
  "schemaVersion": 3,
  "config": {"arch": "vca", "regs": 192, "threads": 1,
             "mode": "sampled"},
  "summary": {"cycles": 6100, "insts": 6000, "ipc": 0.98},
  "sampling": {"samples": 3, "mean_cpi": 1.0}
})", "--sampling");
}

TEST(Explain, LoadRunJsonRejectsLeavesNotSummingToCycles)
{
    expectRejected("vca_test_explain_partial.json", R"({
  "schemaVersion": 3,
  "config": {"arch": "vca", "mode": "detailed"},
  "summary": {"cycles": 100, "insts": 50, "ipc": 0.5},
  "cpu": {
    "cycles": 100,
    "cycle_accounting": {
      "taxonomy": {"retiring": 50, "backend_core": {"exec": 10}}
    }
  }
})", "summary.cycles");
}

TEST(Explain, LoadRunJsonRejectsGarbage)
{
    EXPECT_THROW(analysis::loadRunJson("/nonexistent/run.json", ""),
                 FatalError);
}

TEST(Explain, HotspotsLocalizeWhereTheGapOpens)
{
    ExplainInput a = syntheticRun("a", 80'000, 0);
    ExplainInput b = syntheticRun("b", 120'000, 40'000);
    a.intervalLeafNames = {"backend_memory.spill_stall"};
    b.intervalLeafNames = a.intervalLeafNames;
    for (int i = 0; i < 5; ++i) {
        analysis::ExplainInterval iv;
        iv.committedCum = (i + 1) * 10'000.0;
        iv.cycles = 16'000;
        iv.leafCycles = {0};
        a.intervals.push_back(iv);
        if (i == 4) { // the gap opens entirely in the last fifth
            iv.cycles = 56'000;
            iv.leafCycles = {40'000};
        }
        b.intervals.push_back(iv);
    }
    const ExplainReport r = analysis::explain(a, b);
    ASSERT_FALSE(r.hotspots.empty());
    EXPECT_GE(r.hotspots[0].instLo, 40'000.0 - 1e-9);
    EXPECT_EQ(r.hotspots[0].topLeaf, "backend_memory.spill_stall");
    EXPECT_GT(r.hotspots[0].gapShare, 0.5);
}

TEST(Explain, SelftestPasses)
{
    EXPECT_EQ(analysis::explainSelftest(), 0);
}

} // namespace
