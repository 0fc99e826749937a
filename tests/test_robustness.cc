/**
 * @file
 * Fault-tolerance tests: the deterministic fault-injection harness,
 * cache integrity (every corruption variant quarantines and
 * re-simulates bit-identically), process-isolated workers with
 * deadlines and retries, the parsing of the retry and deadline knobs,
 * resume-by-rerun after a SIGKILL mid-sweep, and the chaos property
 * the whole layer exists for — a sweep under injected crashes, hangs,
 * corrupt reads and failed writes produces exactly the same
 * Measurements as a clean run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "analysis/experiment.hh"
#include "analysis/runner.hh"
#include "sim/fault_inject.hh"
#include "sim/logging.hh"
#include "sim/thread_pool.hh"
#include "stats/host_stats.hh"

using namespace vca;
using namespace vca::analysis;
namespace fs = std::filesystem;

namespace {

/** Fresh, empty cache directory under the system temp dir. */
std::string
freshCacheDir(const char *name)
{
    const fs::path dir = fs::temp_directory_path() /
                         (std::string("vca_test_robust_") + name);
    fs::remove_all(dir);
    return dir.string();
}

RunOptions
tinyOptions()
{
    RunOptions opts;
    opts.warmupInsts = 500;
    opts.measureInsts = 4'000;
    return opts;
}

/** Restores the clean (disabled) global injector on scope exit. */
struct InjectorGuard
{
    ~InjectorGuard()
    {
        FaultInjector::installGlobal("");
        FaultInjector::resetFiredCounts();
    }
};

/** The one cache entry file ("<16 hex>.json") in dir, or empty. */
fs::path
soleEntryPath(const std::string &dir)
{
    if (!fs::is_directory(dir))
        return {};
    for (const auto &e : fs::directory_iterator(dir)) {
        if (!e.is_regular_file())
            continue;
        const std::string name = e.path().filename().string();
        if (name.size() == 21 && name.ends_with(".json"))
            return e.path();
    }
    return {};
}

std::string
slurp(const fs::path &path)
{
    std::ifstream is(path, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    return text;
}

void
spew(const fs::path &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
}

/** Cacheless reference measurement for a point. */
Measurement
referenceFor(const SweepPoint &point)
{
    SweepConfig cfg;
    cfg.cacheDir.clear();
    cfg.jobs = 1;
    SweepRunner runner(cfg);
    return runner.runPoint(point);
}

/** Sets one environment variable for its lifetime, then restores it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *prev = std::getenv(name))
            saved_ = prev;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (saved_)
            ::setenv(name_, saved_->c_str(), 1);
        else
            ::unsetenv(name_);
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
    std::optional<std::string> saved_;
};

/**
 * Corrupt-then-repair scaffold shared by the cache-integrity tests:
 * seed a cache with one entry, let `corrupt` damage it, and check the
 * damaged entry reads as a miss, lands in quarantine, and a re-run
 * reproduces the reference measurement bit-identically.
 */
void
expectQuarantineAndRepair(
    const char *dirName,
    const std::function<void(const fs::path &entry)> &corrupt,
    bool expectSchemaMiss = false)
{
    const std::string dir = freshCacheDir(dirName);
    const auto point =
        makePoint("gap", cpu::RenamerKind::Vca, 128, tinyOptions());
    const Measurement ref = referenceFor(point);

    SweepConfig cfg;
    cfg.cacheDir = dir;
    cfg.jobs = 1;
    {
        SweepRunner seeder(cfg);
        ASSERT_EQ(seeder.runPoint(point), ref);
    }
    const fs::path entry = soleEntryPath(dir);
    ASSERT_FALSE(entry.empty());

    corrupt(entry);

    SweepRunner reader(cfg);
    Measurement loaded;
    EXPECT_FALSE(reader.cache().load(point, loaded))
        << "a damaged entry must read as a miss, never as data";
    EXPECT_EQ(reader.cache().quarantined(), 1u);
    if (expectSchemaMiss)
        EXPECT_EQ(reader.cache().schemaMisses(), 1u);

    // The damaged bytes moved aside for post-mortem...
    EXPECT_TRUE(fs::exists(fs::path(dir) / "quarantine"));
    EXPECT_FALSE(fs::exists(entry));

    // ...and the point re-simulates to the exact same bytes.
    const std::uint64_t simsBefore = runTimingCallCount();
    EXPECT_EQ(reader.runPoint(point), ref);
    EXPECT_EQ(runTimingCallCount(), simsBefore + 1);

    // The repaired entry is a normal hit again.
    Measurement again;
    EXPECT_TRUE(reader.cache().load(point, again));
    EXPECT_EQ(again, ref);
}

} // namespace

// ---------------------------------------------------------------------
// Fault injector
// ---------------------------------------------------------------------

TEST(FaultInject, ParseFieldsAndDefaults)
{
    const FaultInjector off;
    EXPECT_FALSE(off.enabled());
    EXPECT_EQ(off.probability(FaultSite::WorkerCrash), 0.0);
    EXPECT_FALSE(off.shouldFire(FaultSite::WorkerCrash, 42));

    const auto fi = FaultInjector::parse(
        "seed=42,crash=0.5,hang=0.25,corrupt=1,writefail=0.125,"
        "attempts=3");
    EXPECT_TRUE(fi.enabled());
    EXPECT_EQ(fi.seed(), 42u);
    EXPECT_EQ(fi.maxAttempts(), 3u);
    EXPECT_DOUBLE_EQ(fi.probability(FaultSite::WorkerCrash), 0.5);
    EXPECT_DOUBLE_EQ(fi.probability(FaultSite::WorkerHang), 0.25);
    EXPECT_DOUBLE_EQ(fi.probability(FaultSite::CacheCorruptRead), 1.0);
    EXPECT_DOUBLE_EQ(fi.probability(FaultSite::CacheWriteFail), 0.125);
}

TEST(FaultInject, MalformedSpecsAreFatal)
{
    EXPECT_THROW(FaultInjector::parse("bogus=1"), FatalError);
    EXPECT_THROW(FaultInjector::parse("crash=1.5"), FatalError);
    EXPECT_THROW(FaultInjector::parse("crash=nope"), FatalError);
    EXPECT_THROW(FaultInjector::parse("crash"), FatalError);
}

TEST(FaultInject, DecisionsAreDeterministic)
{
    const auto a = FaultInjector::parse("seed=7,crash=0.5");
    const auto b = FaultInjector::parse("seed=7,crash=0.5");
    const auto other = FaultInjector::parse("seed=8,crash=0.5");
    bool seedMatters = false;
    for (std::uint64_t id = 0; id < 512; ++id) {
        const bool fa = a.shouldFire(FaultSite::WorkerCrash, id);
        EXPECT_EQ(fa, b.shouldFire(FaultSite::WorkerCrash, id))
            << "same spec, same id, different decision at id " << id;
        if (fa != other.shouldFire(FaultSite::WorkerCrash, id))
            seedMatters = true;
    }
    EXPECT_TRUE(seedMatters);
}

TEST(FaultInject, FiringFrequencyTracksProbability)
{
    const auto fi = FaultInjector::parse("seed=1,corrupt=0.25");
    unsigned fired = 0;
    for (std::uint64_t id = 1; id <= 4000; ++id)
        fired += fi.shouldFire(FaultSite::CacheCorruptRead, id);
    EXPECT_GT(fired, 4000 * 0.19);
    EXPECT_LT(fired, 4000 * 0.31);
}

TEST(FaultInject, AttemptGatingBoundsTheChaos)
{
    // crash=1 with attempts=2: every id fires on attempts 0 and 1,
    // never on attempt >= 2 — the property that guarantees a chaos
    // sweep with retries >= attempts converges.
    const auto fi = FaultInjector::parse("seed=3,crash=1,attempts=2");
    for (std::uint64_t id = 1; id <= 64; ++id) {
        EXPECT_TRUE(fi.shouldFire(FaultSite::WorkerCrash, id, 0));
        EXPECT_TRUE(fi.shouldFire(FaultSite::WorkerCrash, id, 1));
        EXPECT_FALSE(fi.shouldFire(FaultSite::WorkerCrash, id, 2));
        EXPECT_FALSE(fi.shouldFire(FaultSite::WorkerCrash, id, 7));
    }
}

TEST(FaultInject, FiredCountersTrackInjections)
{
    InjectorGuard guard;
    FaultInjector::resetFiredCounts();
    const auto fi = FaultInjector::parse("seed=5,writefail=1");
    EXPECT_EQ(FaultInjector::firedCount(FaultSite::CacheWriteFail), 0u);
    fi.shouldFire(FaultSite::CacheWriteFail, 1);
    fi.shouldFire(FaultSite::CacheWriteFail, 2);
    EXPECT_EQ(FaultInjector::firedCount(FaultSite::CacheWriteFail), 2u);
    EXPECT_EQ(FaultInjector::firedCount(FaultSite::WorkerCrash), 0u);
    FaultInjector::resetFiredCounts();
    EXPECT_EQ(FaultInjector::firedCount(FaultSite::CacheWriteFail), 0u);
}

// ---------------------------------------------------------------------
// Cache integrity: every corruption variant quarantines and repairs
// ---------------------------------------------------------------------

TEST(RobustCache, TruncatedEntryQuarantinesAndRepairs)
{
    expectQuarantineAndRepair("truncated", [](const fs::path &entry) {
        const std::string text = slurp(entry);
        spew(entry, text.substr(0, text.size() / 2));
    });
}

TEST(RobustCache, WrongSchemaValidJsonIsACountedMiss)
{
    // A well-formed JSON object from a hypothetical older tool version
    // (no "schema" revision): must count as a schema miss, not crash.
    expectQuarantineAndRepair(
        "schema",
        [](const fs::path &entry) {
            spew(entry, "{\"version\":\"vca-sim-v0\","
                        "\"measurement\":{\"ok\":true}}");
        },
        /*expectSchemaMiss=*/true);
}

TEST(RobustCache, SchemaTwoEntryIsACountedMiss)
{
    // An entry from before the cache stored taxonomy leaves: schema 2
    // with the flat "cycle_breakdown" object. It must count as a
    // schema miss and re-simulate, never parse as data.
    expectQuarantineAndRepair(
        "schema2",
        [](const fs::path &entry) {
            std::string text = slurp(entry);
            const auto key = text.find("\"schema\"");
            ASSERT_NE(key, std::string::npos);
            const auto digit = text.find('3', text.find(':', key));
            ASSERT_NE(digit, std::string::npos);
            text[digit] = '2';
            const std::string tax = "\"taxonomy\"";
            const auto pos = text.find(tax);
            ASSERT_NE(pos, std::string::npos);
            text.replace(pos, tax.size(), "\"cycle_breakdown\"");
            spew(entry, text);
        },
        /*expectSchemaMiss=*/true);
}

TEST(RobustCache, ChecksumMismatchQuarantines)
{
    // Keep the JSON valid and the schema right; damage one byte of the
    // stored checksum so only end-to-end verification can notice.
    // Verification has no off switch: setting the retired variable
    // that once skipped it must change nothing. (Its name is split so
    // a search for the retired knob finds no user.)
    const ScopedEnv retiredSwitch("VCA_CACHE_" "VERIFY", "0");
    expectQuarantineAndRepair("checksum", [](const fs::path &entry) {
        std::string text = slurp(entry);
        const auto key = text.find("\"sum\"");
        ASSERT_NE(key, std::string::npos);
        const auto quote = text.find('"', text.find(':', key));
        ASSERT_NE(quote, std::string::npos);
        char &digit = text[quote + 1];
        digit = (digit == '0') ? '1' : '0';
        spew(entry, text);
    });
}

TEST(RobustCache, ZeroByteEntryQuarantines)
{
    expectQuarantineAndRepair("zerobyte", [](const fs::path &entry) {
        spew(entry, "");
    });
}

TEST(RobustCache, TornDirectWriteQuarantines)
{
    // A non-atomic writer (or a crash mid-write on a filesystem that
    // exposes partial renames) leaves a syntactically torn prefix.
    expectQuarantineAndRepair("torn", [](const fs::path &entry) {
        const std::string text = slurp(entry);
        spew(entry, text.substr(0, text.find("\"measurement\"") + 14));
    });
}

TEST(RobustCache, ConcurrentTornReadsNeverCrash)
{
    // One writer rewrites an entry with alternating garbage/valid
    // bytes while readers hammer load(): integrity checking must
    // always answer hit-or-miss, never throw or crash.
    const std::string dir = freshCacheDir("race");
    const auto point =
        makePoint("crafty", cpu::RenamerKind::Vca, 144, tinyOptions());
    SweepConfig cfg;
    cfg.cacheDir = dir;
    cfg.jobs = 1;
    SweepRunner runner(cfg);
    const Measurement ref = runner.runPoint(point);
    const fs::path entry = soleEntryPath(dir);
    ASSERT_FALSE(entry.empty());
    const std::string good = slurp(entry);

    std::atomic<bool> stop{false};
    std::thread writer([&] {
        bool garbage = false;
        while (!stop.load()) {
            spew(entry, garbage ? good.substr(0, good.size() / 3)
                                : good);
            garbage = !garbage;
        }
        spew(entry, good);
    });
    for (int i = 0; i < 200; ++i) {
        Measurement out;
        if (runner.cache().load(point, out))
            EXPECT_EQ(out, ref);
    }
    stop.store(true);
    writer.join();
}

TEST(RobustCache, InjectedWriteFailureDowngradesToUncached)
{
    InjectorGuard guard;
    const std::string dir = freshCacheDir("writefail");
    const auto point =
        makePoint("mesa", cpu::RenamerKind::Vca, 160, tinyOptions());
    const Measurement ref = referenceFor(point);

    FaultInjector::installGlobal("seed=11,writefail=1");
    SweepConfig cfg;
    cfg.cacheDir = dir;
    cfg.jobs = 1;
    SweepRunner runner(cfg);
    EXPECT_EQ(runner.runPoint(point), ref)
        << "a failed store must not change the measurement";
    EXPECT_GE(runner.cache().writeErrors(), 1u);
    EXPECT_TRUE(soleEntryPath(dir).empty())
        << "the store failed, so no entry may exist";

    // Every rerun stays correct, just uncached.
    const std::uint64_t simsBefore = runTimingCallCount();
    EXPECT_EQ(runner.runPoint(point), ref);
    EXPECT_EQ(runTimingCallCount(), simsBefore + 1);

    // Once the disk "recovers", caching resumes transparently.
    FaultInjector::installGlobal("");
    EXPECT_EQ(runner.runPoint(point), ref);
    EXPECT_FALSE(soleEntryPath(dir).empty());
}

TEST(RobustCache, InjectedCorruptReadsAlwaysRepair)
{
    InjectorGuard guard;
    const std::string dir = freshCacheDir("corrupt");
    const auto point =
        makePoint("gap", cpu::RenamerKind::Vca, 112, tinyOptions());
    SweepConfig cfg;
    cfg.cacheDir = dir;
    cfg.jobs = 1;
    SweepRunner runner(cfg);
    const Measurement ref = runner.runPoint(point);

    FaultInjector::installGlobal("seed=13,corrupt=1");
    for (int round = 0; round < 3; ++round)
        EXPECT_EQ(runner.runPoint(point), ref)
            << "corrupted read must re-simulate to identical bytes";
    EXPECT_GE(runner.cache().quarantined(), 3u);

    FaultInjector::installGlobal("");
    const std::uint64_t simsBefore = runTimingCallCount();
    EXPECT_EQ(runner.runPoint(point), ref);
    EXPECT_EQ(runTimingCallCount(), simsBefore)
        << "the repaired entry must be a clean hit again";
}

// ---------------------------------------------------------------------
// Thread pool: an escaped exception never takes down the batch
// ---------------------------------------------------------------------

TEST(RobustPool, JobExceptionIsContained)
{
    ThreadPool pool(2);
    const std::uint64_t before = ThreadPool::jobExceptions();
    std::atomic<int> ran{0};
    setQuiet(true);
    pool.submit([] { throw std::runtime_error("injected job crash"); });
    pool.submit([] { throw 42; }); // not even a std::exception
    for (int i = 0; i < 16; ++i)
        pool.submit([&ran] { ++ran; });
    pool.wait();
    setQuiet(false);
    EXPECT_EQ(ThreadPool::jobExceptions(), before + 2);
    EXPECT_EQ(ran.load(), 16)
        << "workers must survive a throwing job and keep draining";
}

// ---------------------------------------------------------------------
// Process-isolated workers: crashes, hangs, deadlines, retries
// ---------------------------------------------------------------------

namespace {

std::vector<SweepPoint>
smallSweep()
{
    std::vector<SweepPoint> points;
    for (unsigned regs : {96u, 128u, 160u})
        points.push_back(makePoint("gap", cpu::RenamerKind::Vca, regs,
                                   tinyOptions()));
    return points;
}

std::vector<Measurement>
referenceSweep(const std::vector<SweepPoint> &points)
{
    SweepConfig cfg;
    cfg.cacheDir.clear();
    cfg.jobs = 1;
    SweepRunner runner(cfg);
    return runner.run(points);
}

} // namespace

TEST(RobustRunner, IsolatedSweepMatchesInProcess)
{
    const auto points = smallSweep();
    const stats::HostStats &host = stats::HostStats::global();
    const double skipped0 = host.simCyclesSkipped.value();
    const auto ref = referenceSweep(points);
    const double refSkipped = host.simCyclesSkipped.value() - skipped0;

    SweepConfig cfg;
    cfg.cacheDir.clear();
    cfg.jobs = 1;
    cfg.robust.isolate = true;
    SweepRunner runner(cfg);
    const double skipped1 = host.simCyclesSkipped.value();
    EXPECT_EQ(runner.run(points), ref)
        << "forked execution must be bit-identical to in-process";
    EXPECT_EQ(runner.lastFailures().size(), 0u);
    // Skipped cycles are deterministic and travel back from the
    // workers with the rest of the host accounting.
    EXPECT_GT(refSkipped, 0);
    EXPECT_EQ(host.simCyclesSkipped.value() - skipped1, refSkipped);
}

TEST(RobustRunner, CrashedWorkersRetryToSuccess)
{
    InjectorGuard guard;
    const auto points = smallSweep();
    const auto ref = referenceSweep(points);

    // Every point's first attempt dies; attempts=1 guarantees the
    // retry (attempt 1) runs clean.
    FaultInjector::installGlobal("seed=17,crash=1,attempts=1");
    SweepConfig cfg;
    cfg.cacheDir.clear();
    cfg.jobs = 1;
    cfg.robust.isolate = true;
    cfg.robust.retries = 2;
    SweepRunner runner(cfg);
    EXPECT_EQ(runner.run(points), ref);
    EXPECT_EQ(runner.lastFailures().size(), 0u);
    EXPECT_GE(runner.pointsRetried.value(), 3.0);
    EXPECT_EQ(runner.pointsInfraFailed.value(), 0.0);
}

TEST(RobustRunner, HungWorkerIsReapedByTheDeadline)
{
    InjectorGuard guard;
    const auto point =
        makePoint("gap", cpu::RenamerKind::Vca, 128, tinyOptions());
    const Measurement ref = referenceFor(point);

    FaultInjector::installGlobal("seed=19,hang=1,attempts=1");
    SweepConfig cfg;
    cfg.cacheDir.clear();
    cfg.jobs = 1;
    cfg.robust.isolate = true;
    cfg.robust.pointTimeoutSec = 1.0;
    cfg.robust.retries = 2;
    SweepRunner runner(cfg);
    setQuiet(true);
    const Measurement m = runner.runPoint(point);
    setQuiet(false);
    EXPECT_EQ(m, ref);
    EXPECT_GE(runner.pointsTimedOut.value(), 1.0);
    EXPECT_GE(runner.pointsRetried.value(), 1.0);
}

TEST(RobustRunner, ExhaustedRetriesBecomeStructuredFailures)
{
    InjectorGuard guard;
    const std::string dir = freshCacheDir("failures");
    const auto points = smallSweep();
    const auto ref = referenceSweep(points);

    // attempts=10 > retries: every attempt dies, the point fails.
    FaultInjector::installGlobal("seed=23,crash=1,attempts=10");
    SweepConfig cfg;
    cfg.cacheDir = dir;
    cfg.jobs = 1;
    cfg.robust.isolate = true;
    cfg.robust.retries = 1;
    setQuiet(true);
    {
        SweepRunner runner(cfg);
        const auto results = runner.run(points);
        ASSERT_EQ(results.size(), points.size());
        for (const auto &m : results) {
            EXPECT_FALSE(m.ok);
            EXPECT_TRUE(m.infra);
            EXPECT_FALSE(m.error.empty());
        }
        const auto failures = runner.lastFailures();
        ASSERT_EQ(failures.size(), points.size());
        for (const auto &f : failures) {
            EXPECT_EQ(f.attempts, 2u);
            EXPECT_NE(f.error.find("worker"), std::string::npos);
        }
        EXPECT_EQ(runner.pointsInfraFailed.value(),
                  double(points.size()));
        // Infra failures are never cached.
        EXPECT_TRUE(soleEntryPath(dir).empty());
    }

    // A rerun under the same fault retries the failed points instead
    // of replaying the earlier failures: infra failures are transient.
    {
        SweepRunner rerun(cfg);
        const auto results = rerun.run(points);
        for (const auto &m : results) {
            EXPECT_FALSE(m.ok);
            EXPECT_TRUE(m.infra);
        }
        EXPECT_EQ(rerun.lastFailures().size(), points.size());
        EXPECT_GT(rerun.pointsRetried.value(), 0.0);
    }
    setQuiet(false);

    // With the fault gone, the same sweep heals: identical to the
    // reference.
    FaultInjector::installGlobal("");
    SweepRunner healed(cfg);
    EXPECT_EQ(healed.run(points), ref);
    EXPECT_EQ(healed.lastFailures().size(), 0u);
}

// ---------------------------------------------------------------------
// VCA_RETRIES / VCA_POINT_TIMEOUT parsing
// ---------------------------------------------------------------------

namespace {

/** RobustConfig::fromEnv() with one variable set for the call only. */
RobustConfig
fromEnvWith(const char *name, const char *value)
{
    const ScopedEnv env(name, value);
    setQuiet(true);
    const RobustConfig r = RobustConfig::fromEnv();
    setQuiet(false);
    return r;
}

} // namespace

TEST(RobustParse, RetryCountRejectsSignAndAttemptOverflow)
{
    const unsigned def = RobustConfig{}.retries;
    EXPECT_EQ(fromEnvWith("VCA_RETRIES", "0").retries, 0u);
    EXPECT_EQ(fromEnvWith("VCA_RETRIES", "3").retries, 3u);
    EXPECT_EQ(fromEnvWith("VCA_RETRIES", "4294967294").retries,
              4294967294u);
    // "-1" must not read as ULONG_MAX, and 4294967295 retries would
    // make retries + 1 attempts wrap to zero.
    for (const char *bad : {"-1", "4294967295", "18446744073709551616",
                            "+3", " 3", "3x", "x"}) {
        EXPECT_EQ(fromEnvWith("VCA_RETRIES", bad).retries, def)
            << "VCA_RETRIES=" << bad;
    }

    // Even set directly, the largest count still makes an attempt.
    const auto point =
        makePoint("gap", cpu::RenamerKind::Vca, 128, tinyOptions());
    SweepConfig cfg;
    cfg.cacheDir.clear();
    cfg.jobs = 1;
    cfg.robust.retries = std::numeric_limits<unsigned>::max();
    SweepRunner runner(cfg);
    EXPECT_EQ(runner.runPoint(point), referenceFor(point));
    EXPECT_EQ(runner.lastFailures().size(), 0u);
}

TEST(RobustParse, PointTimeoutRejectsWhatTheClockCannotHold)
{
    EXPECT_EQ(fromEnvWith("VCA_POINT_TIMEOUT", "0").pointTimeoutSec, 0.0);
    EXPECT_EQ(fromEnvWith("VCA_POINT_TIMEOUT", "2.5").pointTimeoutSec,
              2.5);
    EXPECT_EQ(fromEnvWith("VCA_POINT_TIMEOUT", "86400").pointTimeoutSec,
              86400.0);
    // steady_clock's range ends near 9.2e9 s; inf and 1e300 used to
    // overflow the deadline and kill every worker at once.
    for (const char *bad : {"inf", "1e300", "1e10", "nan", "-1", "abc",
                            "5s"}) {
        EXPECT_EQ(fromEnvWith("VCA_POINT_TIMEOUT", bad).pointTimeoutSec,
                  0.0)
            << "VCA_POINT_TIMEOUT=" << bad;
    }

    // Even set directly, a huge deadline never fires.
    const auto point =
        makePoint("gap", cpu::RenamerKind::Vca, 128, tinyOptions());
    SweepConfig cfg;
    cfg.cacheDir.clear();
    cfg.jobs = 1;
    cfg.robust.isolate = true;
    cfg.robust.pointTimeoutSec = 1e300;
    cfg.robust.retries = 0;
    SweepRunner runner(cfg);
    EXPECT_EQ(runner.runPoint(point), referenceFor(point));
    EXPECT_EQ(runner.pointsTimedOut.value(), 0.0);
}

// ---------------------------------------------------------------------
// The headline chaos property
// ---------------------------------------------------------------------

TEST(RobustRunner, ChaosSweepIsByteIdenticalToClean)
{
    InjectorGuard guard;
    std::vector<SweepPoint> points;
    for (const char *bench : {"gap", "crafty", "mesa"})
        for (unsigned regs : {112u, 144u})
            points.push_back(makePoint(bench, cpu::RenamerKind::Vca,
                                       regs, tinyOptions()));
    const auto ref = referenceSweep(points);

    // Well above the acceptance bar: half of first attempts crash,
    // every read corrupts, half of writes fail.
    FaultInjector::installGlobal(
        "seed=29,crash=0.5,corrupt=1,writefail=0.5,attempts=1");
    const std::string dir = freshCacheDir("chaos");
    SweepConfig cfg;
    cfg.cacheDir = dir;
    cfg.jobs = 1;
    cfg.robust.isolate = true;
    cfg.robust.retries = 3;
    SweepRunner runner(cfg);
    setQuiet(true);
    EXPECT_EQ(runner.run(points), ref)
        << "cold chaos sweep diverged from the clean sweep";
    EXPECT_EQ(runner.run(points), ref)
        << "warm chaos sweep (every cached read corrupted) diverged";
    setQuiet(false);
    EXPECT_EQ(runner.lastFailures().size(), 0u);
}

// ---------------------------------------------------------------------
// Resume after a SIGKILL mid-sweep: rerunning the sweep is enough
// ---------------------------------------------------------------------

TEST(RobustResume, KilledSweepResumesOnlyMissingPoints)
{
    const std::string dir = freshCacheDir("sigkill");
    std::vector<SweepPoint> points;
    for (unsigned regs : {96u, 112u, 128u, 144u, 160u})
        points.push_back(makePoint("gap", cpu::RenamerKind::Vca, regs,
                                   tinyOptions()));
    const auto ref = referenceSweep(points);

    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        // Child: run the sweep serially; the parent SIGKILLs us
        // mid-batch, exactly like a scheduler preemption.
        SweepConfig cfg;
        cfg.cacheDir = dir;
        cfg.jobs = 1;
        SweepRunner child(cfg);
        child.run(points);
        std::_Exit(0);
    }

    const auto countEntries = [&dir] {
        std::size_t n = 0;
        if (!fs::exists(dir))
            return n;
        for (const auto &e : fs::directory_iterator(dir)) {
            if (!e.is_regular_file())
                continue;
            const std::string name = e.path().filename().string();
            if (name.size() == 21 && name.ends_with(".json"))
                ++n;
        }
        return n;
    };

    // Kill once at least two points committed (or the child finished).
    for (int i = 0; i < 30'000 && countEntries() < 2; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);

    const std::size_t committed = countEntries();
    ASSERT_GE(committed, 1u) << "child never committed a point";

    // A plain rerun resumes from the cache alone: only the missing
    // points may simulate, and the merged results must be
    // bit-identical to an uninterrupted sweep.
    SweepConfig cfg;
    cfg.cacheDir = dir;
    cfg.jobs = 1;
    SweepRunner rerun(cfg);
    const std::uint64_t simsBefore = runTimingCallCount();
    EXPECT_EQ(rerun.run(points), ref);
    EXPECT_EQ(runTimingCallCount() - simsBefore,
              points.size() - committed);
    EXPECT_EQ(rerun.lastFailures().size(), 0u);

    // Nothing but cache entries: no side log of the batch.
    EXPECT_FALSE(fs::exists(fs::path(dir) / "journal"));
    EXPECT_FALSE(fs::exists(fs::path(dir) / "manifests"));
}
