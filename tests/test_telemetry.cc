/**
 * @file
 * Tests for the telemetry layer (ctest label: observability).
 *
 *  - ChromeTraceWriter: schema round-trip through the in-tree JSON
 *    parser, ordering/nesting invariants, idempotent finish.
 *  - RegCacheAnalyzer: 3C classification on synthetic probe streams
 *    (each class provoked explicitly), burst/occupancy plumbing, and
 *    the compulsory+capacity+conflict == fills invariant end-to-end
 *    on a real VCA core.
 *  - Golden telemetry counters on a tiny deterministic workload
 *    (tests/golden/telemetry.json, refresh with VCA_UPDATE_GOLDEN=1).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "cpu/ooo_cpu.hh"
#include "stats/statistics.hh"
#include "telemetry/chrome_trace.hh"
#include "telemetry/pipeline_trace.hh"
#include "telemetry/reg_cache_analyzer.hh"
#include "trace/json.hh"
#include "wload/generator.hh"
#include "wload/profile.hh"

namespace {

using namespace vca;
using telemetry::ChromeTraceWriter;
using telemetry::RegCacheAnalyzer;

// ---------------------------------------------------------------------
// ChromeTraceWriter
// ---------------------------------------------------------------------

std::string
tempTracePath(const char *name)
{
    namespace fs = std::filesystem;
    return (fs::temp_directory_path() /
            (std::string("vca_test_trace_") + name + ".json"))
        .string();
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

TEST(ChromeTrace, SchemaRoundTrip)
{
    const std::string path = tempTracePath("schema");
    {
        ChromeTraceWriter w(path);
        w.setProcessName(1, "sim");
        w.setThreadName(1, 100, "T0 lane 0");
        w.slice(1, 100, "addq r1, r2", 10.0, 5.0,
                R"({"seq":7,"pc":64})");
        w.begin(1, 100, "outer", 20.0);
        w.begin(1, 100, "inner", 21.0);
        w.end(1, 100, 22.0);
        w.end(1, 100, 25.0);
        w.instant(1, 100, "window overflow", 23.0);
        w.counter(1, 100, "vca transfers", 24.0,
                  {{"spills", 3.0}, {"fills", 4.0}});
        EXPECT_TRUE(w.finish());
        EXPECT_TRUE(w.finish()) << "finish must be idempotent";
    }

    const auto doc = trace::JsonValue::parse(slurp(path));
    const auto *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_GT(events->size(), 0u);

    // Every event carries the required trace-event fields, timestamps
    // are non-decreasing per (pid, tid), and B/E pairs balance.
    std::map<std::pair<double, double>, double> lastTs;
    std::map<std::pair<double, double>, int> depth;
    bool sawNonMeta = false;
    for (size_t i = 0; i < events->size(); ++i) {
        const auto &ev = events->at(i);
        ASSERT_NE(ev.find("name"), nullptr);
        ASSERT_NE(ev.find("ph"), nullptr);
        ASSERT_NE(ev.find("pid"), nullptr);
        ASSERT_NE(ev.find("tid"), nullptr);
        const std::string ph = ev.find("ph")->asString();
        if (ph == "M") {
            EXPECT_FALSE(sawNonMeta)
                << "metadata events must sort before the timeline";
            continue;
        }
        sawNonMeta = true;
        ASSERT_NE(ev.find("ts"), nullptr);
        const auto key = std::make_pair(ev.find("pid")->asNumber(),
                                        ev.find("tid")->asNumber());
        const double ts = ev.find("ts")->asNumber();
        if (lastTs.count(key)) {
            EXPECT_GE(ts, lastTs[key]);
        }
        lastTs[key] = ts;
        if (ph == "B") {
            ++depth[key];
        } else if (ph == "E") {
            EXPECT_GE(--depth[key], 0) << "E without matching B";
        }
    }
    for (const auto &[key, d] : depth)
        EXPECT_EQ(d, 0) << "unbalanced B/E on a track";

    std::filesystem::remove(path);
}

TEST(ChromeTrace, EqualTimestampsKeepNesting)
{
    // Outer and inner slices that share both endpoints must still
    // sort outer-B, inner-B, inner-E, outer-E (stable sort preserves
    // insertion order on ties).
    const std::string path = tempTracePath("nesting");
    {
        ChromeTraceWriter w(path);
        w.begin(1, 1, "outer", 5.0);
        w.begin(1, 1, "inner", 5.0);
        w.end(1, 1, 9.0);
        w.end(1, 1, 9.0);
        ASSERT_TRUE(w.finish());
    }
    const auto doc = trace::JsonValue::parse(slurp(path));
    const auto *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->size(), 4u);
    EXPECT_EQ(events->at(0).find("name")->asString(), "outer");
    EXPECT_EQ(events->at(0).find("ph")->asString(), "B");
    EXPECT_EQ(events->at(1).find("name")->asString(), "inner");
    EXPECT_EQ(events->at(1).find("ph")->asString(), "B");
    EXPECT_EQ(events->at(2).find("ph")->asString(), "E");
    EXPECT_EQ(events->at(3).find("ph")->asString(), "E");
    std::filesystem::remove(path);
}

TEST(ChromeTrace, UnwritablePathWarnsAndReturnsFalse)
{
    ChromeTraceWriter w("/nonexistent-dir/trace.json");
    w.instant(1, 1, "x", 0.0);
    EXPECT_FALSE(w.finish());
}

// ---------------------------------------------------------------------
// RegCacheAnalyzer: synthetic probe streams
// ---------------------------------------------------------------------

RegCacheAnalyzer::Config
tinyShadow(unsigned capacity)
{
    RegCacheAnalyzer::Config cfg;
    cfg.shadowCapacity = capacity;
    cfg.physRegs = capacity;
    cfg.numThreads = 1;
    return cfg;
}

TEST(RegCacheAnalyzer, FirstTouchIsCompulsory)
{
    stats::StatGroup root("cpu");
    RegCacheAnalyzer a(tinyShadow(4), nullptr, &root);
    a.onFill(0x100);
    a.onFill(0x108);
    a.onFill(0x110);
    EXPECT_DOUBLE_EQ(a.fillsCompulsory.value(), 3.0);
    EXPECT_DOUBLE_EQ(a.fillsCapacity.value(), 0.0);
    EXPECT_DOUBLE_EQ(a.fillsConflict.value(), 0.0);
    EXPECT_DOUBLE_EQ(a.accesses.value(), 3.0);
}

TEST(RegCacheAnalyzer, RefillWhileShadowHoldsItIsConflict)
{
    // The FA shadow still holds the line, so only the real table's
    // limited associativity can explain the miss.
    stats::StatGroup root("cpu");
    RegCacheAnalyzer a(tinyShadow(4), nullptr, &root);
    a.onFill(0x100); // compulsory
    a.onFill(0x100); // shadow holds it -> conflict
    EXPECT_DOUBLE_EQ(a.fillsCompulsory.value(), 1.0);
    EXPECT_DOUBLE_EQ(a.fillsConflict.value(), 1.0);
    EXPECT_DOUBLE_EQ(a.fillsCapacity.value(), 0.0);
}

TEST(RegCacheAnalyzer, RefillAfterShadowEvictionIsCapacity)
{
    // Capacity 2: filling a third line evicts the LRU one; touching
    // the evicted line again is a capacity miss (seen before, gone
    // from even a fully-associative cache of this size).
    stats::StatGroup root("cpu");
    RegCacheAnalyzer a(tinyShadow(2), nullptr, &root);
    a.onFill(0x100); // compulsory, LRU order: 100
    a.onFill(0x108); // compulsory, LRU order: 108,100
    a.onFill(0x110); // compulsory, evicts 100
    a.onFill(0x100); // capacity
    EXPECT_DOUBLE_EQ(a.fillsCompulsory.value(), 3.0);
    EXPECT_DOUBLE_EQ(a.fillsCapacity.value(), 1.0);
    EXPECT_DOUBLE_EQ(a.fillsConflict.value(), 0.0);
    const double sum = a.fillsCompulsory.value() +
                       a.fillsCapacity.value() +
                       a.fillsConflict.value();
    EXPECT_DOUBLE_EQ(sum, 4.0) << "3C classes must partition fills";
}

TEST(RegCacheAnalyzer, AccessesUpdateRecencyAndShadowHits)
{
    stats::StatGroup root("cpu");
    RegCacheAnalyzer a(tinyShadow(2), nullptr, &root);
    a.onFill(0x100);   // LRU: 100
    a.onFill(0x108);   // LRU: 108,100
    a.onAccess(0x100); // shadow hit, LRU: 100,108
    a.onFill(0x110);   // evicts 108 (not 100: the access refreshed it)
    a.onFill(0x100);   // still resident -> conflict
    a.onFill(0x108);   // evicted -> capacity
    // Shadow hits: the explicit access plus the conflict fill (the FA
    // shadow held the line even though the real table missed).
    EXPECT_DOUBLE_EQ(a.shadowHits.value(), 2.0);
    EXPECT_DOUBLE_EQ(a.fillsConflict.value(), 1.0);
    EXPECT_DOUBLE_EQ(a.fillsCapacity.value(), 1.0);
    EXPECT_DOUBLE_EQ(a.accesses.value(), 6.0);
}

TEST(RegCacheAnalyzer, BurstWindowsFlushIntoHistograms)
{
    stats::StatGroup root("cpu");
    auto cfg = tinyShadow(8);
    cfg.burstWindowCycles = 16;
    RegCacheAnalyzer a(cfg, nullptr, &root);
    a.onCycle(0);
    a.onFill(0x100);
    a.onFill(0x108);
    a.onSpill(0x200);
    a.onCycle(64); // crosses several windows: flush
    EXPECT_GE(a.fillBurst.totalSamples(), 1u);
    EXPECT_GE(a.spillBurst.totalSamples(), 1u);
    EXPECT_DOUBLE_EQ(a.fillBurst.maxSampled(), 2.0);
    EXPECT_DOUBLE_EQ(a.spillBurst.maxSampled(), 1.0);
}

TEST(RegCacheAnalyzer, RegistersAsStatGroupUnderParent)
{
    stats::StatGroup root("cpu");
    RegCacheAnalyzer a(tinyShadow(4), nullptr, &root);
    a.onFill(0x100);
    EXPECT_EQ(root.findPath("reg_cache.fills_compulsory"),
              static_cast<const stats::StatBase *>(&a.fillsCompulsory));
    // Stat reset clears counters but NOT the shadow models: the same
    // address misses as conflict (still resident), not compulsory.
    root.resetStats();
    EXPECT_DOUBLE_EQ(a.fillsCompulsory.value(), 0.0);
    a.onFill(0x100);
    EXPECT_DOUBLE_EQ(a.fillsConflict.value(), 1.0);
    EXPECT_DOUBLE_EQ(a.fillsCompulsory.value(), 0.0)
        << "shadow state must survive resetStats";
}

// ---------------------------------------------------------------------
// End-to-end on a real VCA core
// ---------------------------------------------------------------------

TEST(TelemetryEndToEnd, ThreeCClassesPartitionRenamerFills)
{
    const auto &prof = wload::profileByName("crafty");
    const isa::Program *prog = wload::cachedProgram(prof, true);
    cpu::CpuParams params =
        cpu::CpuParams::preset(cpu::RenamerKind::Vca, 192);
    cpu::OooCpu cpu(params, {prog});
    auto analyzer = telemetry::attachRegCacheAnalyzer(cpu);
    ASSERT_NE(analyzer, nullptr);
    cpu.run(20'000, 2'000'000);

    const auto &group = static_cast<const stats::StatGroup &>(cpu);
    const auto *fills = dynamic_cast<const stats::Scalar *>(
        group.find("fills"));
    ASSERT_NE(fills, nullptr);
    const double sum = analyzer->fillsCompulsory.value() +
                       analyzer->fillsCapacity.value() +
                       analyzer->fillsConflict.value();
    EXPECT_DOUBLE_EQ(sum, fills->value())
        << "every fill must land in exactly one 3C class";
    EXPECT_GT(sum, 0.0);
    EXPECT_GT(analyzer->occupancyWindowed.totalSamples() +
                  analyzer->occupancyGlobal.totalSamples(),
              0u);
    // The analyzer dumps as a child group of the CPU.
    EXPECT_NE(group.findPath("reg_cache.fills_compulsory"), nullptr);
}

TEST(TelemetryEndToEnd, NonVcaRenamerHasNothingToObserve)
{
    const auto &prof = wload::profileByName("crafty");
    const isa::Program *prog = wload::cachedProgram(prof, false);
    cpu::CpuParams params =
        cpu::CpuParams::preset(cpu::RenamerKind::Baseline, 256);
    cpu::OooCpu cpu(params, {prog});
    EXPECT_EQ(telemetry::attachRegCacheAnalyzer(cpu), nullptr);
}

TEST(TelemetryEndToEnd, AttachingAnalyzerDoesNotPerturbSimulation)
{
    // The shadow models are pure observers: simulated numbers must be
    // bit-identical with and without telemetry attached.
    analysis::RunOptions opts;
    opts.warmupInsts = 1'000;
    opts.measureInsts = 10'000;
    const auto plain = analysis::runBench(
        wload::profileByName("crafty"), cpu::RenamerKind::Vca, 192, opts);
    opts.regTelemetry = true;
    const auto observed = analysis::runBench(
        wload::profileByName("crafty"), cpu::RenamerKind::Vca, 192, opts);
    ASSERT_TRUE(plain.ok);
    ASSERT_TRUE(observed.ok);
    EXPECT_EQ(plain.cycles, observed.cycles);
    EXPECT_EQ(plain.insts, observed.insts);
    EXPECT_DOUBLE_EQ(plain.ipc, observed.ipc);
    // The observed run additionally exports the fill classes.
    std::map<std::string, double> counters(observed.counters.begin(),
                                           observed.counters.end());
    EXPECT_TRUE(counters.count("fills_compulsory"));
    EXPECT_TRUE(counters.count("fills_capacity"));
    EXPECT_TRUE(counters.count("fills_conflict"));
    EXPECT_TRUE(counters.count("shadow_hits"));
    const std::map<std::string, double> plainCounters(
        plain.counters.begin(), plain.counters.end());
    EXPECT_FALSE(plainCounters.count("fills_compulsory"));
}

// ---------------------------------------------------------------------
// Golden telemetry counters (VCA_UPDATE_GOLDEN=1 refreshes)
// ---------------------------------------------------------------------

std::map<std::string, double>
goldenTelemetryCounters()
{
    analysis::RunOptions opts;
    opts.warmupInsts = 2'000;
    opts.measureInsts = 20'000;
    opts.regTelemetry = true;
    const auto m = analysis::runBench(
        wload::profileByName("crafty"), cpu::RenamerKind::Vca, 192, opts);
    EXPECT_TRUE(m.ok);
    std::map<std::string, double> out;
    for (const auto &[name, value] : m.counters)
        if (name.rfind("fills_", 0) == 0 || name == "shadow_hits")
            out[name] = value;
    return out;
}

TEST(TelemetryGolden, CountersMatchCheckedInNumbers)
{
    const std::string path =
        std::string(VCA_GOLDEN_DIR) + "/telemetry.json";
    const auto counters = goldenTelemetryCounters();
    ASSERT_EQ(counters.size(), 4u);

    if (const char *update = std::getenv("VCA_UPDATE_GOLDEN");
        update && *update && std::string(update) != "0") {
        std::ofstream os(path);
        ASSERT_TRUE(os) << "cannot write " << path;
        trace::JsonWriter w(os);
        w.beginObject();
        w.key("bench").string("crafty");
        w.key("arch").string("vca");
        w.key("phys_regs").number(std::uint64_t(192));
        for (const auto &[name, value] : counters)
            w.key(name).number(value);
        w.endObject();
        os << '\n';
        GTEST_SKIP() << "updated " << path;
    }

    std::ifstream is(path);
    ASSERT_TRUE(is) << path
                    << " missing; run with VCA_UPDATE_GOLDEN=1 once";
    std::ostringstream text;
    text << is.rdbuf();
    const auto doc = trace::JsonValue::parse(text.str());
    for (const auto &[name, value] : counters) {
        const auto *v = doc.find(name);
        ASSERT_NE(v, nullptr) << name << " missing from " << path;
        EXPECT_DOUBLE_EQ(v->asNumber(), value)
            << name << " drifted from golden";
    }
}

// ---------------------------------------------------------------------
// Chrome sim tracer on a real core
// ---------------------------------------------------------------------

TEST(ChromeSimTracer, EmitsBalancedSlicesForTinyRun)
{
    const std::string path = tempTracePath("simtracer");
    const auto &prof = wload::profileByName("crafty");
    const isa::Program *prog = wload::cachedProgram(prof, true);
    cpu::CpuParams params =
        cpu::CpuParams::preset(cpu::RenamerKind::Vca, 192);
    {
        cpu::OooCpu cpu(params, {prog});
        ChromeTraceWriter writer(path);
        telemetry::ChromeSimTraceOptions opts;
        opts.maxInsts = 500;
        telemetry::attachChromeSimTracer(cpu, writer, opts);
        cpu.run(2'000, 200'000);
        ASSERT_TRUE(writer.finish());
        EXPECT_GT(writer.eventCount(), 0u);
    }
    const auto doc = trace::JsonValue::parse(slurp(path));
    const auto *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::map<std::pair<double, double>, int> depth;
    for (size_t i = 0; i < events->size(); ++i) {
        const auto &ev = events->at(i);
        const std::string ph = ev.find("ph")->asString();
        const auto key = std::make_pair(ev.find("pid")->asNumber(),
                                        ev.find("tid")->asNumber());
        if (ph == "B") {
            ++depth[key];
        } else if (ph == "E") {
            ASSERT_GE(--depth[key], 0);
        }
    }
    for (const auto &[key, d] : depth)
        EXPECT_EQ(d, 0);
    std::filesystem::remove(path);
}

} // namespace
