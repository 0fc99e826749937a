/**
 * @file
 * Fault-containment tests: cache integrity (every corruption variant
 * quarantines and re-simulates bit-identically, an unwritable cache
 * runs uncached), process-isolated workers (bit-identical to
 * in-process; a crash, a hang past the deadline or an escaped
 * exception fails its one point on the first attempt while the rest of
 * the batch completes), the parsing of the deadline knob, and
 * resume-by-rerun after a SIGKILL mid-sweep. Failures are provoked
 * through SweepRunner::setPointHook and by damaging files directly.
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
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "analysis/experiment.hh"
#include "analysis/runner.hh"
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

/** Number of cache entry files ("<16 hex>.json") in dir. */
std::size_t
entryCount(const std::string &dir)
{
    std::size_t n = 0;
    if (!fs::is_directory(dir))
        return n;
    for (const auto &e : fs::directory_iterator(dir)) {
        const std::string name = e.path().filename().string();
        if (e.is_regular_file() && name.size() == 21 &&
            name.ends_with(".json"))
            ++n;
    }
    return n;
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
    if (expectSchemaMiss) {
        EXPECT_EQ(reader.cache().schemaMisses(), 1u);
    }

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
        if (runner.cache().load(point, out)) {
            EXPECT_EQ(out, ref);
        }
    }
    stop.store(true);
    writer.join();
}

TEST(RobustCache, UnwritableCacheDirDowngradesToUncached)
{
    // A regular file where the cache directory belongs: creating the
    // directory fails even as root, which a read-only mode would not.
    const std::string dir = freshCacheDir("writefail");
    const auto point =
        makePoint("mesa", cpu::RenamerKind::Vca, 160, tinyOptions());
    const Measurement ref = referenceFor(point);
    spew(dir, "not a directory");

    SweepConfig cfg;
    cfg.cacheDir = dir;
    cfg.jobs = 1;
    SweepRunner runner(cfg);
    EXPECT_EQ(runner.runPoint(point), ref)
        << "a failed store must not change the measurement";
    EXPECT_GE(runner.cache().writeErrors(), 1u);
    EXPECT_TRUE(fs::is_regular_file(dir));

    // Every rerun stays correct, just uncached.
    const std::uint64_t simsBefore = runTimingCallCount();
    EXPECT_EQ(runner.runPoint(point), ref);
    EXPECT_EQ(runTimingCallCount(), simsBefore + 1);

    // Once the path is free, caching resumes transparently.
    fs::remove(dir);
    EXPECT_EQ(runner.runPoint(point), ref);
    EXPECT_EQ(entryCount(dir), 1u);
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
// Process-isolated workers: one attempt per point
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

TEST(RobustRunner, HungWorkerIsReapedByTheDeadline)
{
    const auto point =
        makePoint("gap", cpu::RenamerKind::Vca, 128, tinyOptions());
    SweepConfig cfg;
    cfg.cacheDir.clear();
    cfg.jobs = 1;
    cfg.robust.isolate = true;
    cfg.robust.pointTimeoutSec = 1.0;
    SweepRunner runner(cfg);
    runner.setPointHook([](const SweepPoint &) {
        for (;;)
            ::pause();
    });
    const Measurement m = runner.runPoint(point);
    EXPECT_FALSE(m.ok);
    EXPECT_TRUE(m.infra);
    EXPECT_NE(m.error.find("deadline"), std::string::npos) << m.error;
    EXPECT_EQ(runner.pointsTimedOut.value(), 1.0);
    EXPECT_EQ(runner.lastFailures().size(), 1u);
}

TEST(RobustRunner, CrashedWorkerFailsOnlyItsPoint)
{
    const std::string dir = freshCacheDir("failures");
    const auto points = smallSweep();
    const auto ref = referenceSweep(points);

    // Two of the three workers die on their first and only attempt:
    // one exits with a status, one is killed by a signal.
    SweepConfig cfg;
    cfg.cacheDir = dir;
    cfg.jobs = 1;
    cfg.robust.isolate = true;
    {
        SweepRunner runner(cfg);
        runner.setPointHook([](const SweepPoint &p) {
            if (p.physRegs == 96)
                ::_exit(113);
            if (p.physRegs == 128)
                ::raise(SIGKILL);
        });
        const auto results = runner.run(points);
        ASSERT_EQ(results.size(), points.size());
        for (const Measurement *m : {&results[0], &results[1]}) {
            EXPECT_FALSE(m->ok);
            EXPECT_TRUE(m->infra);
        }
        EXPECT_NE(results[0].error.find("exited with status 113"),
                  std::string::npos)
            << results[0].error;
        EXPECT_NE(results[1].error.find("killed by signal 9"),
                  std::string::npos)
            << results[1].error;
        EXPECT_EQ(results[2], ref[2]) << "the rest of the batch completes";

        // One structured failure per failed point, sorted by label.
        const auto failures = runner.lastFailures();
        ASSERT_EQ(failures.size(), 2u);
        EXPECT_EQ(failures[0].label, "gap/vca/128");
        EXPECT_EQ(failures[0].error, results[1].error);
        EXPECT_EQ(failures[1].label, "gap/vca/96");
        EXPECT_EQ(failures[1].error, results[0].error);
        EXPECT_EQ(runner.pointsInfraFailed.value(), 2.0);
        EXPECT_EQ(runner.pointsRetried.value(), 0.0);
        // Infra failures are never cached; the healthy point is.
        EXPECT_EQ(entryCount(dir), 1u);
    }

    // Without the hook, a rerun simulates just the two failed points
    // and matches the reference.
    SweepRunner rerun(cfg);
    EXPECT_EQ(rerun.run(points), ref);
    EXPECT_EQ(rerun.cacheHits.value(), 1.0);
    EXPECT_EQ(rerun.cacheMisses.value(), 2.0);
    EXPECT_EQ(rerun.lastFailures().size(), 0u);
}

TEST(RobustRunner, InProcessFallbackContainsAThrowingPoint)
{
    // With no usable temp dir an isolated runner runs its points
    // in-process. An exception escaping a point there must become that
    // point's infra failure: escaping the pool job instead, it would
    // skip the batch's countdown and run() would wait forever.
    const auto points = smallSweep();
    const auto ref = referenceSweep(points);
    const std::string missing =
        (fs::temp_directory_path() / "vca_test_robust_no_tmp").string();
    fs::remove_all(missing);

    SweepConfig cfg;
    cfg.cacheDir.clear();
    cfg.jobs = 1;
    cfg.robust.isolate = true;
    SweepRunner runner(cfg);
    runner.setPointHook([](const SweepPoint &p) {
        if (p.physRegs == 128)
            throw std::runtime_error("point hook threw");
    });
    std::vector<Measurement> results;
    {
        const ScopedEnv tmpdir("TMPDIR", missing.c_str());
        setQuiet(true);
        results = runner.run(points);
        setQuiet(false);
    }
    ASSERT_EQ(results.size(), points.size());
    EXPECT_EQ(results[0], ref[0]);
    EXPECT_FALSE(results[1].ok);
    EXPECT_TRUE(results[1].infra);
    EXPECT_EQ(results[1].error, "point hook threw");
    EXPECT_EQ(results[2], ref[2]);
    ASSERT_EQ(runner.lastFailures().size(), 1u);
    EXPECT_EQ(runner.lastFailures()[0].label, "gap/vca/128");
}

// ---------------------------------------------------------------------
// VCA_POINT_TIMEOUT parsing
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
    SweepRunner runner(cfg);
    EXPECT_EQ(runner.runPoint(point), referenceFor(point));
    EXPECT_EQ(runner.pointsTimedOut.value(), 0.0);
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

    // Kill once at least two points committed (or the child finished).
    for (int i = 0; i < 30'000 && entryCount(dir) < 2; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);

    const std::size_t committed = entryCount(dir);
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
