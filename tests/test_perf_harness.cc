/**
 * @file
 * Performance-harness regression tests (ctest label: perf).
 *
 * These pin down the plumbing the simulated-MIPS trajectory depends
 * on, not absolute speed (wall-clock assertions on shared CI hardware
 * only produce flakes):
 *  - runTiming() feeds the process-wide host StatGroup, and the
 *    instrumentation does not perturb simulated results (a scaled-down
 *    sim run twice is bit-identical);
 *  - a warm sweep is pure cache hits: zero detailed simulations, zero
 *    new host-stat intervals (runTimingCallCount() is the witness);
 *  - the host group round-trips through the stats JSON export with
 *    internally consistent derived values, as BENCH_*.json and
 *    vca-sim --stats-json carry it.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "analysis/runner.hh"
#include "sim/logging.hh"
#include "stats/host_stats.hh"
#include "trace/json.hh"
#include "trace/stats_json.hh"
#include "wload/profile.hh"

namespace {

using namespace vca;
using namespace vca::analysis;

RunOptions
smallOptions()
{
    RunOptions opts;
    opts.warmupInsts = 1'000;
    opts.measureInsts = 20'000;
    return opts;
}

TEST(PerfHarness, HostStatsAccumulatePerDetailedSim)
{
    setQuiet(true);
    auto &host = stats::HostStats::global();
    const double runsBefore = host.simRuns.value();
    const double secondsBefore = host.simSeconds.value();
    const double instsBefore = host.simInsts.value();

    const auto first = runBench(wload::profileByName("crafty"),
                                cpu::RenamerKind::Vca, 160,
                                smallOptions());
    ASSERT_TRUE(first.ok);
    EXPECT_EQ(host.simRuns.value(), runsBefore + 1);
    EXPECT_GT(host.simSeconds.value(), secondsBefore);
    // Warmup + measured interval both count.
    EXPECT_GE(host.simInsts.value() - instsBefore, 21'000.0);

    // The host-side timing must not leak into simulated numbers.
    const auto second = runBench(wload::profileByName("crafty"),
                                 cpu::RenamerKind::Vca, 160,
                                 smallOptions());
    EXPECT_TRUE(first == second)
        << "host instrumentation perturbed a deterministic sim";
    EXPECT_EQ(host.simRuns.value(), runsBefore + 2);
}

TEST(PerfHarness, WarmSweepRunsZeroDetailedSims)
{
    setQuiet(true);
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "vca_perf_test_cache";
    fs::remove_all(dir);

    SweepConfig config;
    config.jobs = 2;
    config.cacheDir = dir.string();
    std::vector<SweepPoint> points;
    for (unsigned regs : {128u, 160u, 192u})
        points.push_back(makePoint("crafty", cpu::RenamerKind::Vca,
                                   regs, smallOptions()));

    SweepRunner cold(config);
    const auto first = cold.run(points);
    EXPECT_EQ(cold.cacheMisses.value(), double(points.size()));

    // The whole point of the result cache: repeating a sweep costs no
    // detailed simulation — and therefore no host-stat intervals.
    const std::uint64_t simsBefore = runTimingCallCount();
    const double hostRunsBefore =
        stats::HostStats::global().simRuns.value();
    SweepRunner warm(config);
    const auto second = warm.run(points);
    EXPECT_EQ(runTimingCallCount(), simsBefore)
        << "warm sweep must be pure cache hits";
    EXPECT_EQ(stats::HostStats::global().simRuns.value(),
              hostRunsBefore)
        << "cache hits must not fabricate host-throughput intervals";
    EXPECT_EQ(warm.cacheHits.value(), double(points.size()));
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i)
        EXPECT_TRUE(first[i] == second[i]) << "point " << i;
    fs::remove_all(dir);
}

TEST(PerfHarness, HostStatsExportToJson)
{
    stats::HostStats host;
    host.record(0.5, 2'000'000, 4'000'000, 3'000'000);
    host.record(0.5, 1'000'000, 2'000'000);

    std::ostringstream os;
    {
        trace::JsonWriter w(os);
        w.beginObject();
        trace::writeJsonGroup(host, w);
        w.endObject();
    }
    const trace::JsonValue doc = trace::JsonValue::parse(os.str());
    const trace::JsonValue *group = doc.find("host");
    ASSERT_NE(group, nullptr) << os.str();

    const auto num = [&](const char *name) {
        const trace::JsonValue *v = group->find(name);
        EXPECT_NE(v, nullptr) << "missing host." << name;
        return v ? v->asNumber() : -1.0;
    };
    EXPECT_DOUBLE_EQ(num("sim_seconds"), 1.0);
    EXPECT_DOUBLE_EQ(num("sim_insts"), 3'000'000.0);
    EXPECT_DOUBLE_EQ(num("sim_cycles"), 6'000'000.0);
    EXPECT_DOUBLE_EQ(num("sim_cycles_skipped"), 3'000'000.0);
    EXPECT_DOUBLE_EQ(num("sim_runs"), 2.0);
    // Derived values stay consistent with their inputs after export.
    EXPECT_DOUBLE_EQ(num("sim_mips"), 3.0);
    EXPECT_DOUBLE_EQ(num("sim_cycles_per_sec"), 6'000'000.0);
}

} // namespace
