/**
 * @file
 * Accuracy-oracle test tier (ctest label: accuracy).
 *
 * The sampled execution modes trade detailed-simulation coverage for
 * host speed; this tier pins down both sides of that trade on matched
 * detailed-vs-sampled pairs across all four renamer architectures:
 *
 *  - accuracy: sampled-mode IPC within epsilon (default 3%, override
 *    VCA_ACCURACY_EPS) of the detailed IPC for the same configuration,
 *    and simpoint mode within the same bound on these stationary
 *    synthetic workloads;
 *  - speed: the functional side must run at least 5x (override
 *    VCA_ACCURACY_SPEEDUP) the host-MIPS of the detailed side,
 *    measured from the HostStats func/sim split of the very same
 *    sampled runs;
 *  - stability: sampled and SimPoint measurements are golden, every
 *    field including the sampling summary and per-sample records
 *    (tests/golden/sampled.json, refresh with VCA_UPDATE_GOLDEN=1), and
 *    bit-identical across sweep job counts and across process
 *    isolation.
 *
 * scripts/accuracy_gate.py enforces the same epsilon/speedup contract
 * from the command line; scripts/check.sh runs both.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/runner.hh"
#include "golden_json.hh"
#include "stats/host_stats.hh"
#include "trace/json.hh"
#include "wload/generator.hh"
#include "wload/profile.hh"

using namespace vca;

namespace {

double
envDouble(const char *name, double fallback)
{
    const char *v = std::getenv(name);
    return v && *v ? std::strtod(v, nullptr) : fallback;
}

double
epsilon()
{
    return envDouble("VCA_ACCURACY_EPS", 0.03);
}

double
minSpeedup()
{
    return envDouble("VCA_ACCURACY_SPEEDUP", 5.0);
}

const std::vector<cpu::RenamerKind> &
allArchs()
{
    static const std::vector<cpu::RenamerKind> archs = {
        cpu::RenamerKind::Baseline, cpu::RenamerKind::ConvWindow,
        cpu::RenamerKind::IdealWindow, cpu::RenamerKind::Vca};
    return archs;
}

/**
 * Matched spans: after a 240k-instruction warm-up that clears the
 * program's cold-start transient (functional warming sees no
 * wrong-path accesses, so the transient is the one region it cannot
 * reproduce faithfully), sampled mode takes 48k/2k = 24 quanta, one
 * every 10k instructions, covering instructions [250k, ~490k]; the
 * detailed reference measures exactly that region in one continuous
 * run. Comparing IPC over the *same dynamic instructions* is what
 * makes a 3% epsilon meaningful.
 */
analysis::RunOptions
detailedOpts()
{
    analysis::RunOptions opts;
    opts.warmupInsts = 250'000;
    opts.measureInsts = 240'000;
    return opts;
}

analysis::RunOptions
sampledOpts()
{
    analysis::RunOptions opts;
    opts.mode = analysis::SimMode::Sampled;
    opts.warmupInsts = 240'000;
    opts.samplePeriodInsts = 10'000;
    opts.sampleQuantumInsts = 2'000;
    // 3k of detailed warm-up per sample: enough for the conventional
    // window machine to rebuild its (microarchitectural, invisible to
    // functional warming) window stack and spill/fill working set.
    opts.sampleDetailWarmInsts = 3'000;
    opts.measureInsts = 48'000;
    return opts;
}

/**
 * SimPoint estimates the program from one representative interval
 * per phase, measured with continuously-warmed state — so what it
 * estimates is the program's *steady-state* behaviour. Its reference
 * is a detailed run from past the cold-start transient to program
 * end (the measure budget exceeds any profile's dynamic length; the
 * run ends at halt). The transient itself is invisible to BBV
 * clustering — transient and steady intervals execute the same
 * code — which is the classic SimPoint caveat at scaled-down
 * interval lengths.
 */
analysis::RunOptions
fullProgramOpts()
{
    analysis::RunOptions opts;
    opts.warmupInsts = 240'000;
    opts.measureInsts = 5'000'000;
    return opts;
}

analysis::RunOptions
simpointOpts()
{
    analysis::RunOptions opts;
    opts.mode = analysis::SimMode::SimPoint;
    opts.warmupInsts = 20'000;
    opts.measureInsts = 60'000; ///< BBV interval = measured interval
    return opts;
}

/** Physical registers each architecture is comfortable at. */
unsigned
regsFor(cpu::RenamerKind kind)
{
    return kind == cpu::RenamerKind::Vca ? 192 : 256;
}

analysis::Measurement
run(cpu::RenamerKind kind, const analysis::RunOptions &opts)
{
    return analysis::runBench(wload::profileByName("crafty"), kind,
                              regsFor(kind), opts);
}

std::string
goldenPath()
{
    return std::string(VCA_GOLDEN_DIR) + "/sampled.json";
}

} // namespace

TEST(Accuracy, SampledIpcWithinEpsilonOnAllArchs)
{
    setQuiet(true);
    for (cpu::RenamerKind kind : allArchs()) {
        const auto detailed = run(kind, detailedOpts());
        const auto sampled = run(kind, sampledOpts());
        ASSERT_TRUE(detailed.ok) << cpu::renamerKindName(kind) << ": "
                                 << detailed.error;
        ASSERT_TRUE(sampled.ok) << cpu::renamerKindName(kind) << ": "
                                << sampled.error;
        ASSERT_GT(detailed.ipc, 0.0);
        const double relErr =
            std::abs(sampled.ipc - detailed.ipc) / detailed.ipc;
        EXPECT_LE(relErr, epsilon())
            << cpu::renamerKindName(kind) << ": sampled ipc "
            << sampled.ipc << " vs detailed " << detailed.ipc
            << " (" << 100 * relErr << "% > " << 100 * epsilon()
            << "%)";
    }
}

TEST(Accuracy, SimPointIpcWithinEpsilonOnAllArchs)
{
    setQuiet(true);
    for (cpu::RenamerKind kind : allArchs()) {
        const auto detailed = run(kind, fullProgramOpts());
        const auto simpoint = run(kind, simpointOpts());
        ASSERT_TRUE(simpoint.ok) << cpu::renamerKindName(kind) << ": "
                                 << simpoint.error;
        ASSERT_GT(detailed.ipc, 0.0);
        const double relErr =
            std::abs(simpoint.ipc - detailed.ipc) / detailed.ipc;
        EXPECT_LE(relErr, epsilon())
            << cpu::renamerKindName(kind) << ": simpoint ipc "
            << simpoint.ipc << " vs detailed " << detailed.ipc;
    }
}

TEST(Accuracy, FunctionalSideAtLeastFiveTimesDetailedMips)
{
    setQuiet(true);
    // Deltas of the process-wide accumulator around sampled runs of
    // every architecture: the functional fast-forward engine must beat
    // the detailed core's host throughput by the contracted factor.
    const auto &host = stats::HostStats::global();
    const double simSec0 = host.simSeconds.value();
    const double simInsts0 = host.simInsts.value();
    const double funcSec0 = host.funcSeconds.value();
    const double funcInsts0 = host.funcInsts.value();

    for (cpu::RenamerKind kind : allArchs())
        ASSERT_TRUE(run(kind, sampledOpts()).ok);

    const double simSec = host.simSeconds.value() - simSec0;
    const double simInsts = host.simInsts.value() - simInsts0;
    const double funcSec = host.funcSeconds.value() - funcSec0;
    const double funcInsts = host.funcInsts.value() - funcInsts0;
    ASSERT_GT(simSec, 0.0);
    ASSERT_GT(funcSec, 0.0);
    ASSERT_GT(funcInsts, simInsts)
        << "sampling should fast-forward more than it simulates";
    const double simMips = simInsts / simSec / 1e6;
    const double funcMips = funcInsts / funcSec / 1e6;
    EXPECT_GE(funcMips, minSpeedup() * simMips)
        << "functional " << funcMips << " MIPS vs detailed " << simMips
        << " MIPS (need " << minSpeedup() << "x)";
}

namespace {

/** The golden sampled sweep: every architecture in SMARTS mode, plus
 *  one SimPoint point (VCA), fixed seed policy. */
std::vector<analysis::SweepPoint>
goldenSampledPoints()
{
    std::vector<analysis::SweepPoint> points;
    for (cpu::RenamerKind kind : allArchs())
        points.push_back(analysis::makePoint("crafty", kind,
                                             regsFor(kind),
                                             sampledOpts()));
    points.push_back(analysis::makePoint("crafty", cpu::RenamerKind::Vca,
                                         regsFor(cpu::RenamerKind::Vca),
                                         simpointOpts()));
    return points;
}

std::vector<analysis::Measurement>
runGoldenSampledSweep(unsigned jobs = 0, bool isolate = false)
{
    analysis::SweepConfig config;
    config.jobs = jobs;
    config.cacheDir.clear();
    analysis::SweepRunner runner(config);
    analysis::RobustConfig robust = runner.robust();
    robust.isolate = isolate;
    runner.setRobust(robust);
    return runner.run(goldenSampledPoints());
}

} // namespace

TEST(Accuracy, GoldenSampledNumbers)
{
    setQuiet(true);
    const auto points = goldenSampledPoints();
    const auto results = runGoldenSampledSweep();
    ASSERT_EQ(results.size(), points.size());

    if (const char *update = std::getenv("VCA_UPDATE_GOLDEN");
        update && *update) {
        std::ofstream os(goldenPath());
        ASSERT_TRUE(os) << "cannot write " << goldenPath();
        trace::JsonWriter w(os);
        w.beginObject();
        w.key("version").string(analysis::kSimVersionTag);
        w.key("points").beginArray();
        for (size_t i = 0; i < points.size(); ++i) {
            w.beginObject();
            w.key("arch").string(cpu::renamerKindName(points[i].kind));
            w.key("regs").number(std::uint64_t(points[i].physRegs));
            w.key("mode").string(
                analysis::simModeName(points[i].opts.mode));
            w.key("ok").boolean(results[i].ok);
            w.key("cycles").number(std::uint64_t(results[i].cycles));
            w.key("insts").number(std::uint64_t(results[i].insts));
            test::writeMeasurementPin(w, results[i]);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << '\n';
        GTEST_LOG_(INFO) << "updated " << goldenPath();
        return;
    }

    std::ifstream is(goldenPath());
    ASSERT_TRUE(is) << goldenPath()
                    << " missing - run VCA_UPDATE_GOLDEN=1 ctest -L "
                       "accuracy and commit the result";
    std::ostringstream buf;
    buf << is.rdbuf();
    const trace::JsonValue doc = trace::JsonValue::parse(buf.str());
    ASSERT_EQ(doc.find("version")->asString(), analysis::kSimVersionTag)
        << "golden file from a different simulator version - refresh "
           "with VCA_UPDATE_GOLDEN=1";
    const trace::JsonValue *golden = doc.find("points");
    ASSERT_TRUE(golden && golden->isArray());
    ASSERT_EQ(golden->size(), points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        const trace::JsonValue &g = golden->at(i);
        const std::string arch = cpu::renamerKindName(points[i].kind);
        const std::string label =
            arch + " " + analysis::simModeName(points[i].opts.mode);
        EXPECT_EQ(g.find("arch")->asString(), arch);
        EXPECT_EQ(g.find("mode")->asString(),
                  analysis::simModeName(points[i].opts.mode));
        EXPECT_EQ(g.find("ok")->asBool(), results[i].ok) << label;
        EXPECT_EQ(static_cast<std::uint64_t>(
                      g.find("cycles")->asNumber()),
                  static_cast<std::uint64_t>(results[i].cycles))
            << label;
        EXPECT_EQ(static_cast<std::uint64_t>(
                      g.find("insts")->asNumber()),
                  static_cast<std::uint64_t>(results[i].insts))
            << label;
        test::expectMeasurementPin(g, results[i], label);
    }
}

TEST(Accuracy, SampledDeterministicAcrossJobCounts)
{
    // VCA_JOBS must stay a pure performance knob in sampled mode too.
    setQuiet(true);
    const auto serial = runGoldenSampledSweep(1);
    const auto parallel = runGoldenSampledSweep(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(analysis::measurementToJson(serial[i]),
                  analysis::measurementToJson(parallel[i]))
            << "point " << i << " differs between 1 and 8 workers";
        EXPECT_TRUE(serial[i] == parallel[i]);
        // The confidence interval is a pure function of the sample
        // set, so it must be bit-identical across worker counts.
        EXPECT_TRUE(serial[i].sampling == parallel[i].sampling)
            << "point " << i << " CI differs between 1 and 8 workers";
        EXPECT_GT(serial[i].sampling.samples, 0u);
        EXPECT_EQ(serial[i].sampling.ciLoCpi,
                  parallel[i].sampling.ciLoCpi);
        EXPECT_EQ(serial[i].sampling.ciHiCpi,
                  parallel[i].sampling.ciHiCpi);
    }
}

TEST(Accuracy, SampledDeterministicUnderIsolation)
{
    // Forked-worker isolation serializes sampled measurements (and the
    // new functional host-time deltas) through the result file; the
    // numbers must survive the round trip bit-identically.
    setQuiet(true);
    const auto inProcess = runGoldenSampledSweep(2, false);
    const auto isolated = runGoldenSampledSweep(2, true);
    ASSERT_EQ(inProcess.size(), isolated.size());
    for (size_t i = 0; i < inProcess.size(); ++i) {
        EXPECT_EQ(analysis::measurementToJson(inProcess[i]),
                  analysis::measurementToJson(isolated[i]))
            << "point " << i << " differs under --isolate";
        EXPECT_TRUE(inProcess[i] == isolated[i]);
        // The sampling summary (CI included) and the per-sample
        // records must survive the worker result-file round trip.
        EXPECT_TRUE(inProcess[i].sampling == isolated[i].sampling)
            << "point " << i << " CI differs under --isolate";
        EXPECT_EQ(inProcess[i].sampleRecords.size(),
                  isolated[i].sampleRecords.size());
        EXPECT_EQ(inProcess[i].sampling.ciLoCpi,
                  isolated[i].sampling.ciLoCpi);
        EXPECT_EQ(inProcess[i].sampling.ciHiCpi,
                  isolated[i].sampling.ciHiCpi);
    }
}

TEST(Accuracy, SampledModeRejectsTelemetry)
{
    // Guard the mode/observer contract at the harness level (vca-sim
    // additionally rejects the flag combination with exit code 2).
    setQuiet(true);
    analysis::RunOptions opts = sampledOpts();
    opts.regTelemetry = true;
    const auto m = run(cpu::RenamerKind::Vca, opts);
    EXPECT_FALSE(m.ok);
    EXPECT_NE(m.error.find("detailed"), std::string::npos);
}
