/**
 * @file
 * Golden-number regression suite (ctest label: golden).
 *
 * Runs a scaled-down but fully deterministic sweep — every renamer
 * kind over a few register-file sizes, plus two SMT mixes — through
 * the SweepRunner with the on-disk cache disabled, and asserts the
 * exact committed-instruction and cycle counts, each operable point's
 * six-bucket cycle breakdown, and every field measurementToJson()
 * writes (counters, dcache rates, per-thread numbers, taxonomy
 * leaves), against the checked-in numbers in tests/golden/sweep.json.
 * Any change to simulated numbers (intended or not) trips these tests.
 *
 * Refreshing the goldens after an intended change:
 *
 *     VCA_UPDATE_GOLDEN=1 ctest -L golden        # or run vca_golden_tests
 *     git diff tests/golden/                     # inspect, then commit
 *
 * The update path rewrites tests/golden/sweep.json in the source tree
 * (the build knows its location via the VCA_GOLDEN_DIR compile
 * definition). Remember to bump analysis::kSimVersionTag in the same
 * change so stale sweep caches are invalidated too; the golden file
 * records the tag and these tests refuse to compare across versions.
 *
 * Golden.PathLengths pins every bundled profile's complete-program
 * path length and load+store count under both ABIs
 * (tests/golden/path_lengths.json, refreshed the same way). These
 * come from the functional model alone, so they carry no version tag.
 *
 * The Determinism test reruns the same sweep at 1 and at 8 worker
 * threads and requires bit-identical Measurements — the guarantee that
 * makes VCA_JOBS a pure performance knob.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "analysis/runner.hh"
#include "golden_json.hh"
#include "trace/json.hh"
#include "wload/profile.hh"

using namespace vca;

namespace {

std::string
goldenPath()
{
    return std::string(VCA_GOLDEN_DIR) + "/sweep.json";
}

/**
 * The golden sweep: small instruction budgets (the numbers only need
 * to be deterministic, not representative), every architecture, and a
 * size below the baseline's floor so an inoperable point stays golden
 * too (baseline @ 64 regs cannot rename 64 logical registers).
 */
std::vector<analysis::SweepPoint>
goldenPoints()
{
    analysis::RunOptions opts;
    opts.warmupInsts = 2'000;
    opts.measureInsts = 20'000;

    std::vector<analysis::SweepPoint> points;
    for (cpu::RenamerKind kind :
         {cpu::RenamerKind::Baseline, cpu::RenamerKind::ConvWindow,
          cpu::RenamerKind::IdealWindow, cpu::RenamerKind::Vca}) {
        for (unsigned regs : {64u, 128u, 192u})
            points.push_back(
                analysis::makePoint("crafty", kind, regs, opts));
    }

    analysis::RunOptions smt = opts;
    smt.numThreads = 2;
    smt.stopOnFirstThread = true;
    for (cpu::RenamerKind kind :
         {cpu::RenamerKind::Baseline, cpu::RenamerKind::Vca}) {
        analysis::SweepPoint p;
        p.benches = {"crafty", "mesa"};
        p.windowed = false;
        p.kind = kind;
        p.physRegs = 192;
        p.opts = smt;
        points.push_back(p);
    }
    return points;
}

/** Fresh simulations only: no cache, shared global pool. */
std::vector<analysis::Measurement>
runGoldenSweep(unsigned jobs = 0)
{
    analysis::SweepConfig config;
    config.jobs = jobs;
    config.cacheDir.clear();
    analysis::SweepRunner runner(config);
    return runner.run(goldenPoints());
}

void
writeGoldens(const std::vector<analysis::SweepPoint> &points,
             const std::vector<analysis::Measurement> &results)
{
    std::ofstream os(goldenPath());
    ASSERT_TRUE(os) << "cannot write " << goldenPath();
    trace::JsonWriter w(os);
    w.beginObject();
    w.key("version").string(analysis::kSimVersionTag);
    w.key("points").beginArray();
    for (size_t i = 0; i < points.size(); ++i) {
        const auto &p = points[i];
        const auto &m = results[i];
        w.beginObject();
        w.key("arch").string(cpu::renamerKindName(p.kind));
        w.key("regs").number(std::uint64_t(p.physRegs));
        w.key("benches").beginArray();
        for (const std::string &b : p.benches)
            w.string(b);
        w.endArray();
        w.key("ok").boolean(m.ok);
        w.key("cycles").number(std::uint64_t(m.cycles));
        w.key("insts").number(std::uint64_t(m.insts));
        if (m.ok) {
            w.key("cycle_breakdown").beginObject();
            for (const auto &[name, frac] : m.cycleBreakdown)
                w.key(name).number(frac);
            w.endObject();
        }
        test::writeMeasurementPin(w, m);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

std::string
pathLengthsPath()
{
    return std::string(VCA_GOLDEN_DIR) + "/path_lengths.json";
}

} // namespace

TEST(Golden, SweepNumbers)
{
    setQuiet(true);
    const auto points = goldenPoints();
    const auto results = runGoldenSweep();
    ASSERT_EQ(results.size(), points.size());

    if (const char *update = std::getenv("VCA_UPDATE_GOLDEN");
        update && *update) {
        writeGoldens(points, results);
        GTEST_LOG_(INFO) << "updated " << goldenPath();
        return;
    }

    std::ifstream is(goldenPath());
    ASSERT_TRUE(is) << goldenPath()
                    << " missing - run VCA_UPDATE_GOLDEN=1 ctest -L "
                       "golden and commit the result";
    std::ostringstream buf;
    buf << is.rdbuf();
    const trace::JsonValue doc = trace::JsonValue::parse(buf.str());
    ASSERT_TRUE(doc.isObject());
    ASSERT_EQ(doc.find("version")->asString(), analysis::kSimVersionTag)
        << "golden file was recorded for a different simulator version "
           "- refresh with VCA_UPDATE_GOLDEN=1";
    const trace::JsonValue *golden = doc.find("points");
    ASSERT_TRUE(golden && golden->isArray());
    ASSERT_EQ(golden->size(), points.size())
        << "golden point list out of date - refresh with "
           "VCA_UPDATE_GOLDEN=1";

    for (size_t i = 0; i < points.size(); ++i) {
        const trace::JsonValue &g = golden->at(i);
        const auto &p = points[i];
        const auto &m = results[i];
        std::ostringstream label;
        label << cpu::renamerKindName(p.kind) << " @ " << p.physRegs
              << " regs, " << p.benches.size() << " thread(s)";
        EXPECT_EQ(g.find("arch")->asString(),
                  cpu::renamerKindName(p.kind))
            << label.str();
        EXPECT_EQ(g.find("regs")->asNumber(), double(p.physRegs))
            << label.str();
        EXPECT_EQ(g.find("ok")->asBool(), m.ok) << label.str();
        EXPECT_EQ(static_cast<std::uint64_t>(
                      g.find("cycles")->asNumber()),
                  static_cast<std::uint64_t>(m.cycles))
            << label.str();
        EXPECT_EQ(static_cast<std::uint64_t>(
                      g.find("insts")->asNumber()),
                  static_cast<std::uint64_t>(m.insts))
            << label.str();
        test::expectMeasurementPin(g, m, label.str());
        if (!m.ok)
            continue;
        // Exact fractions: the JSON form round-trips doubles.
        const trace::JsonValue *bd = g.find("cycle_breakdown");
        ASSERT_TRUE(bd && bd->isObject()) << label.str();
        const auto &pins = bd->members();
        ASSERT_EQ(pins.size(), m.cycleBreakdown.size()) << label.str();
        for (size_t b = 0; b < pins.size(); ++b) {
            EXPECT_EQ(pins[b].first, m.cycleBreakdown[b].first)
                << label.str();
            EXPECT_EQ(pins[b].second.asNumber(),
                      m.cycleBreakdown[b].second)
                << label.str() << ", bucket " << pins[b].first;
        }
    }
}

TEST(Golden, PathLengths)
{
    // Table 2 and every figure's execution time (CPI x path length)
    // rest on these complete-program counts.
    setQuiet(true);
    const auto &profiles = wload::spec2000Profiles();

    if (const char *update = std::getenv("VCA_UPDATE_GOLDEN");
        update && *update) {
        std::ofstream os(pathLengthsPath());
        ASSERT_TRUE(os) << "cannot write " << pathLengthsPath();
        trace::JsonWriter w(os);
        w.beginObject();
        w.key("programs").beginArray();
        for (const wload::BenchProfile &prof : profiles) {
            for (const bool windowed : {false, true}) {
                w.beginObject();
                w.key("bench").string(prof.name);
                w.key("windowed").boolean(windowed);
                w.key("path_length").number(std::uint64_t(
                    analysis::pathLength(prof, windowed)));
                w.key("mem_ops").number(std::uint64_t(
                    analysis::memOpCount(prof, windowed)));
                w.endObject();
            }
        }
        w.endArray();
        w.endObject();
        os << '\n';
        GTEST_LOG_(INFO) << "updated " << pathLengthsPath();
        return;
    }

    std::ifstream is(pathLengthsPath());
    ASSERT_TRUE(is) << pathLengthsPath()
                    << " missing - run VCA_UPDATE_GOLDEN=1 ctest -L "
                       "golden and commit the result";
    std::ostringstream buf;
    buf << is.rdbuf();
    const trace::JsonValue doc = trace::JsonValue::parse(buf.str());
    const trace::JsonValue *golden = doc.find("programs");
    ASSERT_TRUE(golden && golden->isArray());
    ASSERT_EQ(golden->size(), 2 * profiles.size());
    size_t i = 0;
    for (const wload::BenchProfile &prof : profiles) {
        for (const bool windowed : {false, true}) {
            const trace::JsonValue &g = golden->at(i++);
            const std::string label =
                prof.name + (windowed ? "/windowed" : "/flat");
            ASSERT_EQ(g.find("bench")->asString(), prof.name) << label;
            ASSERT_EQ(g.find("windowed")->asBool(), windowed) << label;
            EXPECT_EQ(static_cast<std::uint64_t>(
                          g.find("path_length")->asNumber()),
                      analysis::pathLength(prof, windowed))
                << label;
            EXPECT_EQ(static_cast<std::uint64_t>(
                          g.find("mem_ops")->asNumber()),
                      analysis::memOpCount(prof, windowed))
                << label;
        }
    }
}

TEST(Golden, BaselineAt64IsInoperable)
{
    // Guards the "inoperable points are golden too" property: the
    // conventional renamer cannot operate with physRegs == logical
    // registers, and that must surface as ok=false, not a crash.
    setQuiet(true);
    const auto points = goldenPoints();
    const auto results = runGoldenSweep();
    ASSERT_EQ(points[0].kind, cpu::RenamerKind::Baseline);
    ASSERT_EQ(points[0].physRegs, 64u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_FALSE(results[0].error.empty());
}

TEST(Determinism, SameNumbersAtAnyJobCount)
{
    // The acceptance bar for the parallel runner: VCA_JOBS only
    // changes wall-clock, never numbers. Run the golden sweep on one
    // worker and on eight and require bit-identical Measurements
    // (compared through the lossless JSON form so a failure prints
    // the differing fields).
    setQuiet(true);
    const auto serial = runGoldenSweep(1);
    const auto parallel = runGoldenSweep(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(analysis::measurementToJson(serial[i]),
                  analysis::measurementToJson(parallel[i]))
            << "point " << i << " differs between 1 and 8 workers";
        EXPECT_TRUE(serial[i] == parallel[i]);
    }
}
