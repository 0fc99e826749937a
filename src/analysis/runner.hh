/**
 * @file
 * Parallel sweep engine with an on-disk result cache and a
 * fault-tolerant execution layer.
 *
 * Every figure/table reproduction is a set of independent timing
 * measurements — (architecture, physical-register count, workload,
 * run options) points. The SweepRunner executes a batch of such
 * points on a work-stealing thread pool and memoizes each point's
 * Measurement in a JSON file keyed by a content hash of the full point
 * configuration, the workload profiles behind it, and the simulator
 * version tag (kSimVersionTag). Re-running an unchanged sweep is pure
 * cache hits: zero detailed simulations. Re-running a killed sweep is
 * how it resumes: only the points it never committed simulate.
 *
 * Determinism: the timing model is deterministic, and every point's
 * RunOptions::seed is derived from its own content hash (never from a
 * shared generator), so results are bit-identical regardless of the
 * worker count (VCA_JOBS) or execution order. tests/test_golden.cc
 * pins this down.
 *
 * Failure containment: a multi-hour sweep must degrade by points, not
 * by batches. The simulator is deterministic, so every simulated point
 * is one attempt: a point that fails is reported once, never retried,
 * and fails again the same way when rerun. Two layers, both opt-in or
 * invisible on the clean path:
 *
 *  - Process isolation (RobustConfig::isolate): each simulated point
 *    runs in a forked child that reports its Measurement through a
 *    result file. A crash, or a kill at the optional wall-clock
 *    deadline, costs that one point: it becomes a structured
 *    PointFailure with Measurement::infra set, never a cached result.
 *  - Cache integrity: entries are checksummed end-to-end; corrupt,
 *    truncated or wrong-schema entries are quarantined to
 *    "<cache>/quarantine/" and transparently re-simulated, and write
 *    errors (ENOSPC and friends) downgrade to "run uncached" with a
 *    single warning.
 *
 * Environment:
 *   VCA_JOBS        worker threads (default hardware_concurrency)
 *   VCA_CACHE_DIR   cache directory; empty string disables the cache
 *                   (default ".vca-cache")
 *   VCA_SWEEP_STATS print a per-batch hit/miss/throughput summary to
 *                   stderr when set and non-empty
 *   VCA_ISOLATE     1 forks one child per simulated point
 *   VCA_POINT_TIMEOUT  per-point deadline in seconds (isolate mode;
 *                   0 = none)
 *
 * Bump kSimVersionTag whenever a change affects simulated numbers —
 * it invalidates every cached measurement at once.
 */

#ifndef VCA_ANALYSIS_RUNNER_HH
#define VCA_ANALYSIS_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/experiment.hh"
#include "stats/statistics.hh"

namespace vca {
class ThreadPool;
}

namespace vca::trace {
class JsonWriter;
}

namespace vca::telemetry {
class ChromeTraceWriter;
}

namespace vca::analysis {

/** Cache-invalidation tag: bump on any change to simulated numbers. */
inline constexpr const char *kSimVersionTag = "vca-sim-v1";

/**
 * On-disk entry format revision. Distinct from kSimVersionTag: bumping
 * this invalidates how measurements are stored (entries with another
 * schema read as misses and are quarantined), while the version tag
 * invalidates what the simulator computes. v2 added the "sum"
 * content checksum; v3 stores the cycle-taxonomy leaf counts
 * ("taxonomy") instead of the derived six-bucket fractions.
 */
inline constexpr int kCacheEntrySchema = 3;

/**
 * One sweep job: a workload (one bundled benchmark name per hardware
 * thread), the architecture that runs it, and the run options.
 */
struct SweepPoint
{
    std::vector<std::string> benches; ///< registry names, one/thread
    bool windowed = false;            ///< run the windowed binaries
    cpu::RenamerKind kind = cpu::RenamerKind::Baseline;
    unsigned physRegs = 256;
    RunOptions opts;
};

/** Single-benchmark point with the ABI implied by the architecture. */
SweepPoint makePoint(const std::string &bench, cpu::RenamerKind kind,
                     unsigned physRegs, const RunOptions &opts);

/**
 * Canonical description of a point: every field of the point and of
 * each referenced workload profile, plus kSimVersionTag. Two points
 * with equal keys measure the same thing.
 */
std::string pointKey(const SweepPoint &point);

/** FNV-1a content hash of pointKey(). Names the cache file. */
std::uint64_t pointHash(const SweepPoint &point);

/** Per-point RNG seed: a splitmix64 finalization of the hash. */
std::uint64_t pointSeed(const SweepPoint &point);

/** Serialize a Measurement (lossless, including every double). */
std::string measurementToJson(const Measurement &m);

/** Inverse of measurementToJson; throws FatalError on bad input. */
Measurement measurementFromJson(const std::string &text);

/** Write one SampleRecord as a JSON object, the form both
 *  measurementToJson and vca-sim's --stats-json use. */
void writeSampleRecord(trace::JsonWriter &w, const SampleRecord &r);

/**
 * Execution-robustness knobs for a SweepRunner; the defaults keep the
 * historical in-process, fail-fast behaviour. fromEnv() is what
 * SweepConfig uses, so VCA_ISOLATE=1 turns on isolation for every
 * bench and tool without code changes.
 */
struct RobustConfig
{
    /** Fork one child per simulated point (crashes cost one point). */
    bool isolate = false;
    /** Per-point wall-clock deadline in seconds; 0 disables. Only
     *  enforceable in isolate mode (a thread cannot be killed). */
    double pointTimeoutSec = 0;

    static RobustConfig fromEnv();
    /** Parse VCA_POINT_TIMEOUT / --point-timeout: finite seconds >= 0
     *  within steady_clock's range. False (out untouched) otherwise. */
    static bool parsePointTimeout(const char *text, double &out);
};

/** One point that failed its attempt (SweepRunner::lastFailures()). */
struct PointFailure
{
    std::string label;       ///< human label (bench/arch/regs)
    std::uint64_t hash = 0;  ///< pointHash() of the failed point
    std::string error;       ///< why the attempt failed
};

/**
 * On-disk Measurement store: one "<hash>.json" file per point under
 * dir, written atomically (temp file + rename), validated on load
 * against the entry schema, the full key string and a content
 * checksum, so hash collisions, stale version tags, truncated files
 * and bit-flipped bytes all read as misses. Invalid entries are moved
 * to "<dir>/quarantine/<name>.<reason>" for post-mortem rather than
 * deleted, and the sweep re-simulates — corruption is never fatal.
 * Failed writes (ENOSPC, read-only dir, unusable path) downgrade to
 * running uncached, warning once per process. An empty dir disables
 * the cache entirely. A writer killed mid-store leaves at most an
 * orphaned "*.tmp.*" file, which load() never reads.
 */
class ResultCache
{
  public:
    explicit ResultCache(std::string dir) : dir_(std::move(dir)) {}

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    bool enabled() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

    /** True and fills out on a valid cached entry for this point. */
    bool load(const SweepPoint &point, Measurement &out) const;

    /**
     * Persist one point's measurement. False when the entry could not
     * be committed (the sweep simply stays uncached); never throws.
     */
    bool store(const SweepPoint &point, const Measurement &m) const;

    /** The cache directory from VCA_CACHE_DIR (default .vca-cache). */
    static std::string defaultDir();

    // Integrity counters for this cache instance.
    std::uint64_t quarantined() const
    {
        return quarantined_.load(std::memory_order_relaxed);
    }
    std::uint64_t writeErrors() const
    {
        return writeErrors_.load(std::memory_order_relaxed);
    }
    /** Valid-JSON-wrong-schema entries (a subset of quarantined()). */
    std::uint64_t schemaMisses() const
    {
        return schemaMisses_.load(std::memory_order_relaxed);
    }

  private:
    std::string pathFor(const SweepPoint &point) const;

    /** Move an invalid entry aside (never throws; warns once). */
    void quarantineEntry(const std::string &path,
                         const char *reason) const;

    /** Count + warn-once for a failed store. */
    void noteWriteError(const std::string &what) const;

    std::string dir_;

    mutable std::atomic<std::uint64_t> quarantined_{0};
    mutable std::atomic<std::uint64_t> writeErrors_{0};
    mutable std::atomic<std::uint64_t> schemaMisses_{0};
    mutable std::atomic<bool> warnedQuarantine_{false};
    mutable std::atomic<bool> warnedWrite_{false};
};

struct SweepConfig
{
    /** Worker threads; 0 = the shared global pool (VCA_JOBS). */
    unsigned jobs = 0;
    /** Cache directory; empty disables. */
    std::string cacheDir = ResultCache::defaultDir();
    /** Execution-robustness knobs (seeded from the environment). */
    RobustConfig robust = RobustConfig::fromEnv();
};

/**
 * Executes batches of sweep points. Results come back in submission
 * order; duplicate points within a batch simulate once. Progress and
 * cache effectiveness are exposed as a StatGroup ("sweep") and can be
 * printed per batch with VCA_SWEEP_STATS=1.
 *
 * Failure containment: a point that crashes, hangs past its deadline
 * or lets an exception escape never tears down the batch. Each point
 * is attempted once; a failed attempt is reported as a Measurement
 * with ok=false and infra=true plus a PointFailure entry, and the
 * remaining points complete normally. Rerunning the same sweep with
 * isolation off reproduces the failure in-process, where a debugger
 * can catch it.
 */
class SweepRunner : public stats::StatGroup
{
  public:
    explicit SweepRunner(const SweepConfig &config = SweepConfig());
    ~SweepRunner() override;

    /** Run every point (cache first, then the pool); blocks. */
    std::vector<Measurement> run(const std::vector<SweepPoint> &points);

    /** Convenience: one point through the cache and pool. */
    Measurement runPoint(const SweepPoint &point);

    const ResultCache &cache() const { return cache_; }

    /** Replace the robustness knobs (tools apply CLI flags here). */
    void setRobust(const RobustConfig &robust);
    RobustConfig robust() const;

    /**
     * Test-only: called with each point at the start of its execution,
     * inside the forked worker when isolated. A test hook crashes,
     * hangs or throws from here; null (the default) does nothing.
     * Set it before run(), never during one.
     */
    void setPointHook(std::function<void(const SweepPoint &)> hook);

    /** Structured failures from the most recent run() batch. */
    std::vector<PointFailure> lastFailures() const;

    /** Every structured failure across this runner's lifetime. */
    std::vector<PointFailure> allFailures() const;

    // Lifetime counters across every batch this runner executed.
    stats::Scalar pointsTotal;   ///< points submitted
    stats::Scalar cacheHits;     ///< served from the on-disk cache
    stats::Scalar cacheMisses;   ///< required a detailed simulation
    stats::Scalar pointsFailed;  ///< completed with !Measurement::ok
    stats::Scalar pointsInfraFailed; ///< crashes, kills, escapes
    stats::Scalar pointsRetried; ///< always 0; kept for perfbench
    stats::Scalar pointsTimedOut; ///< point deadlines that expired
    stats::Scalar sweepSeconds;  ///< wall-clock across batches
    stats::Formula pointsPerSec; ///< lifetime throughput
    stats::Formula cacheQuarantined; ///< invalid entries moved aside
    stats::Formula cacheWriteErrors; ///< cache stores that failed

    /**
     * Shared instance on the global pool with default cache config;
     * what the benches and vca-sim use so one process-wide place
     * accumulates hit/miss statistics.
     */
    static SweepRunner &global();

    /**
     * Emit host-time Chrome trace tracks for subsequent batches: one
     * lane per pool worker thread with a slice per simulated point,
     * and cache-hit slices on the submitting thread's lane. Pass
     * nullptr to stop. The writer must outlive every run() while set.
     */
    void setTraceWriter(telemetry::ChromeTraceWriter *writer);

  private:
    Measurement executePoint(const SweepPoint &point) const;

    /**
     * The one attempt at a point that missed the cache: forked when
     * robust.isolate (in-process when no worker can be forked), with
     * the deadline. Returns either a genuine Measurement (cacheable,
     * even when !ok) or an infra-failure Measurement (infra=true,
     * never cached); sets timedOut when the deadline killed the
     * worker.
     */
    Measurement attemptPoint(const SweepPoint &point,
                             const RobustConfig &robust,
                             bool &timedOut) const;

    /** Stable lane id for the calling thread (0 = submitting thread). */
    int hostLaneFor(telemetry::ChromeTraceWriter &writer);

    SweepConfig config_;
    ResultCache cache_;
    std::unique_ptr<ThreadPool> ownedPool_;
    ThreadPool *pool_;
    std::function<void(const SweepPoint &)> pointHook_;

    mutable std::mutex robustMutex_; ///< guards config_.robust
    mutable std::mutex failuresMutex_;
    std::vector<PointFailure> lastFailures_;
    std::vector<PointFailure> allFailures_;

    telemetry::ChromeTraceWriter *traceWriter_ = nullptr;
    std::mutex traceMutex_;
    std::map<std::thread::id, int> hostLanes_;
};

} // namespace vca::analysis

#endif // VCA_ANALYSIS_RUNNER_HH
