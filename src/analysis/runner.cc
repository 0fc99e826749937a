#include "analysis/runner.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "sim/logging.hh"
#include "sim/thread_pool.hh"
#include "stats/host_stats.hh"
#include "telemetry/chrome_trace.hh"
#include "trace/json.hh"
#include "wload/generator.hh"
#include "wload/profile.hh"

namespace vca::analysis {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Point identity
// ---------------------------------------------------------------------

namespace {

/** Shortest-exact formatting so keys are stable and doubles lossless. */
std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** The 16-hex-digit spelling used for cache files and checksums. */
std::string
hashHex(std::uint64_t h)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

void
appendProfile(std::ostream &os, const wload::BenchProfile &p)
{
    os << "{name=" << p.name << ";fp=" << p.isFloat
       << ";funcs=" << p.numFuncs << ";fanout=" << p.callFanout
       << ";span=" << p.callSpan << ";body=" << p.bodyOps
       << ";locals=" << p.avgLocals << ";leaf=" << fmtDouble(p.leafFrac)
       << ";trip=" << p.loopTripMean
       << ";rbr=" << fmtDouble(p.randomBranchFrac)
       << ";foot=" << p.footprintBytes
       << ";mem=" << fmtDouble(p.memOpFrac)
       << ";chase=" << fmtDouble(p.pointerChaseFrac)
       << ";fpfrac=" << fmtDouble(p.fpFrac)
       << ";target=" << p.targetDynInsts << ";seed=" << p.seed
       << ";callheavy=" << p.callHeavy << "}";
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
splitmix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

bool
envFlag(const char *name)
{
    const char *v = std::getenv(name);
    return v && *v && std::strcmp(v, "0") != 0;
}

} // namespace

SweepPoint
makePoint(const std::string &bench, cpu::RenamerKind kind,
          unsigned physRegs, const RunOptions &opts)
{
    SweepPoint p;
    p.benches = {bench};
    p.windowed = usesWindowedBinary(kind);
    p.kind = kind;
    p.physRegs = physRegs;
    p.opts = opts;
    return p;
}

std::string
pointKey(const SweepPoint &point)
{
    std::ostringstream os;
    os << "v=" << kSimVersionTag
       << ";arch=" << cpu::renamerKindName(point.kind)
       << ";regs=" << point.physRegs << ";windowed=" << point.windowed
       << ";warmup=" << point.opts.warmupInsts
       << ";measure=" << point.opts.measureInsts
       << ";ports=" << point.opts.dcachePorts
       << ";threads=" << point.opts.numThreads
       << ";stopfirst=" << point.opts.stopOnFirstThread;
    const ParamOverrides &ov = point.opts.overrides;
    os << ";ov=" << ov.vcaTableAssoc << "," << ov.astqEntries << ","
       << ov.rsidEntries << "," << ov.vcaRenamePorts << ","
       << ov.vcaCheckpointRecovery << "," << ov.vcaDeadValueHints;
    // Appended only when set so every pre-existing key (and therefore
    // every derived seed and cached result) is byte-identical. A
    // telemetry point is a distinct cache entry: its Measurement
    // carries extra counters.
    if (point.opts.regTelemetry)
        os << ";telem=1";
    // Same back-compat convention: detailed points keep their exact
    // historical keys; only non-detailed modes grow a mode block (the
    // sampling knobs are part of the point's identity).
    if (point.opts.mode != SimMode::Detailed) {
        os << ";mode=" << simModeName(point.opts.mode)
           << ";speriod=" << point.opts.samplePeriodInsts
           << ";squantum=" << point.opts.sampleQuantumInsts
           << ";sfwarm=" << point.opts.sampleFuncWarmInsts
           << ";sdwarm=" << point.opts.sampleDetailWarmInsts;
    }
    os << ";benches=";
    for (const std::string &name : point.benches)
        appendProfile(os, wload::profileByName(name));
    return os.str();
}

std::uint64_t
pointHash(const SweepPoint &point)
{
    return fnv1a(pointKey(point));
}

std::uint64_t
pointSeed(const SweepPoint &point)
{
    // Finalize with splitmix64 so seeds are well distributed even for
    // points whose keys share long prefixes; never 0 (0 means "use the
    // library default" in RunOptions).
    const std::uint64_t seed = splitmix64(pointHash(point));
    return seed ? seed : 1;
}

RobustConfig
RobustConfig::fromEnv()
{
    RobustConfig r;
    r.isolate = envFlag("VCA_ISOLATE");
    if (const char *v = std::getenv("VCA_POINT_TIMEOUT");
        v && *v && !parsePointTimeout(v, r.pointTimeoutSec))
        warn("ignoring VCA_POINT_TIMEOUT='%s' (want seconds >= 0)", v);
    return r;
}

bool
RobustConfig::parsePointTimeout(const char *text, double &out)
{
    char *rest = nullptr;
    const double t = std::strtod(text, &rest);
    // nan fails both comparisons and inf the upper bound.
    const double maxSec = std::chrono::duration<double>(
                              std::chrono::steady_clock::duration::max())
                              .count();
    if (!*text || *rest || !(t >= 0 && t < maxSec))
        return false;
    out = t;
    return true;
}

// ---------------------------------------------------------------------
// Measurement (de)serialization
// ---------------------------------------------------------------------

void
writeSampleRecord(trace::JsonWriter &w, const SampleRecord &r)
{
    w.beginObject();
    w.key("start_inst").number(std::uint64_t(r.startInst));
    w.key("warm_cycles").number(std::uint64_t(r.warmCycles));
    w.key("warm_insts").number(std::uint64_t(r.warmInsts));
    w.key("cycles").number(std::uint64_t(r.cycles));
    w.key("insts").number(std::uint64_t(r.insts));
    w.key("cpi").number(r.cpi);
    w.key("tag_valid_fraction").number(r.tagValidFraction);
    w.key("bpred_table_occupancy").number(r.bpredTableOccupancy);
    w.key("phase").number(double(r.phase));
    w.key("weight").number(r.weight);
    w.endObject();
}

namespace {

void
writeMeasurement(trace::JsonWriter &w, const Measurement &m)
{
    w.beginObject();
    w.key("ok").boolean(m.ok);
    w.key("error").string(m.error);
    w.key("cycles").number(std::uint64_t(m.cycles));
    w.key("insts").number(std::uint64_t(m.insts));
    w.key("ipc").number(m.ipc);
    w.key("cpi").number(m.cpi);
    w.key("dcache_accesses").number(m.dcacheAccesses);
    w.key("dcache_acc_per_inst").number(m.dcacheAccPerInst);
    w.key("thread_cpi").beginArray();
    for (double v : m.threadCpi)
        w.number(v);
    w.endArray();
    w.key("thread_dcache_per_inst").beginArray();
    for (double v : m.threadDcachePerInst)
        w.number(v);
    w.endArray();
    w.key("thread_insts").beginArray();
    for (InstCount v : m.threadInsts)
        w.number(std::uint64_t(v));
    w.endArray();
    w.key("taxonomy").beginObject();
    for (const auto &[name, cycles] : m.taxonomy)
        w.key(name).number(cycles);
    w.endObject();
    w.key("counters").beginObject();
    for (const auto &[name, value] : m.counters)
        w.key(name).number(value);
    w.endObject();
    // Sampling statistics exist only on non-detailed measurements.
    // Written conditionally — and parsed tolerantly below — so that
    // (a) detailed entries are byte-identical with or without this
    // layer and (b) pre-sampling cache entries still verify: the
    // content checksum covers the re-serialization of the parsed
    // measurement, which for an entry without a sampling block must
    // round-trip to an entry without one.
    if (m.sampling.samples > 0) {
        w.key("sampling").beginObject();
        w.key("samples").number(std::uint64_t(m.sampling.samples));
        w.key("mean_cpi").number(m.sampling.meanCpi);
        w.key("cpi_variance").number(m.sampling.cpiVariance);
        w.key("ci_lo_cpi").number(m.sampling.ciLoCpi);
        w.key("ci_hi_cpi").number(m.sampling.ciHiCpi);
        w.key("ci_unbounded").boolean(m.sampling.ciUnbounded);
        w.key("mean_tag_valid_fraction")
            .number(m.sampling.meanTagValidFraction);
        w.key("mean_bpred_table_occupancy")
            .number(m.sampling.meanBpredTableOccupancy);
        w.key("records").beginArray();
        for (const SampleRecord &r : m.sampleRecords)
            writeSampleRecord(w, r);
        w.endArray();
        w.endObject();
    }
    w.endObject();
}

double
numberField(const trace::JsonValue &obj, const char *name)
{
    const trace::JsonValue *v = obj.find(name);
    if (!v || !v->isNumber())
        fatal("measurement JSON: missing number '%s'", name);
    return v->asNumber();
}

Measurement
measurementFromValue(const trace::JsonValue &v)
{
    if (!v.isObject())
        fatal("measurement JSON: not an object");
    Measurement m;
    const trace::JsonValue *ok = v.find("ok");
    const trace::JsonValue *error = v.find("error");
    if (!ok || !error)
        fatal("measurement JSON: missing ok/error");
    m.ok = ok->asBool();
    m.error = error->asString();
    m.cycles = static_cast<Cycle>(numberField(v, "cycles"));
    m.insts = static_cast<InstCount>(numberField(v, "insts"));
    m.ipc = numberField(v, "ipc");
    m.cpi = numberField(v, "cpi");
    m.dcacheAccesses = numberField(v, "dcache_accesses");
    m.dcacheAccPerInst = numberField(v, "dcache_acc_per_inst");
    const auto array = [&v](const char *name) -> const trace::JsonValue & {
        const trace::JsonValue *a = v.find(name);
        if (!a || !a->isArray())
            fatal("measurement JSON: missing array '%s'", name);
        return *a;
    };
    const trace::JsonValue &tc = array("thread_cpi");
    for (size_t i = 0; i < tc.size(); ++i)
        m.threadCpi.push_back(tc.at(i).asNumber());
    const trace::JsonValue &td = array("thread_dcache_per_inst");
    for (size_t i = 0; i < td.size(); ++i)
        m.threadDcachePerInst.push_back(td.at(i).asNumber());
    const trace::JsonValue &ti = array("thread_insts");
    for (size_t i = 0; i < ti.size(); ++i)
        m.threadInsts.push_back(
            static_cast<InstCount>(ti.at(i).asNumber()));
    const auto object = [&v](const char *name) -> const trace::JsonValue & {
        const trace::JsonValue *o = v.find(name);
        if (!o || !o->isObject())
            fatal("measurement JSON: missing object '%s'", name);
        return *o;
    };
    for (const auto &[name, value] : object("taxonomy").members())
        m.taxonomy.emplace_back(name, value.asNumber());
    m.cycleBreakdown = deriveCycleBreakdown(m.taxonomy, m.cycles);
    for (const auto &[name, value] : object("counters").members())
        m.counters.emplace_back(name, value.asNumber());
    // Optional: only non-detailed measurements carry it, and entries
    // written before the sampling layer existed never do.
    if (const trace::JsonValue *s = v.find("sampling");
        s && s->isObject()) {
        m.sampling.samples = static_cast<unsigned>(
            numberField(*s, "samples"));
        m.sampling.meanCpi = numberField(*s, "mean_cpi");
        m.sampling.cpiVariance = numberField(*s, "cpi_variance");
        m.sampling.ciLoCpi = numberField(*s, "ci_lo_cpi");
        m.sampling.ciHiCpi = numberField(*s, "ci_hi_cpi");
        const trace::JsonValue *unb = s->find("ci_unbounded");
        if (!unb)
            fatal("measurement JSON: missing 'ci_unbounded'");
        m.sampling.ciUnbounded = unb->asBool();
        m.sampling.meanTagValidFraction =
            numberField(*s, "mean_tag_valid_fraction");
        m.sampling.meanBpredTableOccupancy =
            numberField(*s, "mean_bpred_table_occupancy");
        const trace::JsonValue *recs = s->find("records");
        if (!recs || !recs->isArray())
            fatal("measurement JSON: missing array 'records'");
        for (size_t i = 0; i < recs->size(); ++i) {
            const trace::JsonValue &rv = recs->at(i);
            SampleRecord r;
            r.startInst = static_cast<InstCount>(
                numberField(rv, "start_inst"));
            r.warmCycles = static_cast<Cycle>(
                numberField(rv, "warm_cycles"));
            r.warmInsts = static_cast<InstCount>(
                numberField(rv, "warm_insts"));
            r.cycles = static_cast<Cycle>(numberField(rv, "cycles"));
            r.insts = static_cast<InstCount>(
                numberField(rv, "insts"));
            r.cpi = numberField(rv, "cpi");
            r.tagValidFraction =
                numberField(rv, "tag_valid_fraction");
            r.bpredTableOccupancy =
                numberField(rv, "bpred_table_occupancy");
            r.phase = static_cast<int>(numberField(rv, "phase"));
            r.weight = numberField(rv, "weight");
            m.sampleRecords.push_back(r);
        }
    }
    return m;
}

} // namespace

std::string
measurementToJson(const Measurement &m)
{
    std::ostringstream os;
    trace::JsonWriter w(os);
    writeMeasurement(w, m);
    return os.str();
}

Measurement
measurementFromJson(const std::string &text)
{
    return measurementFromValue(trace::JsonValue::parse(text));
}

// ---------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------

std::string
ResultCache::defaultDir()
{
    if (const char *env = std::getenv("VCA_CACHE_DIR"))
        return env; // empty string disables the cache
    return ".vca-cache";
}

std::string
ResultCache::pathFor(const SweepPoint &point) const
{
    return dir_ + "/" + hashHex(pointHash(point)) + ".json";
}

void
ResultCache::quarantineEntry(const std::string &path,
                             const char *reason) const
{
    quarantined_.fetch_add(1, std::memory_order_relaxed);
    const fs::path src(path);
    const fs::path qdir = fs::path(dir_) / "quarantine";
    std::error_code ec;
    fs::create_directories(qdir, ec);
    const fs::path dst =
        qdir / (src.filename().string() + "." + reason);
    fs::rename(src, dst, ec);
    if (ec) {
        // Second best: stop re-reading (and re-warning about) it.
        fs::remove(src, ec);
    }
    if (!warnedQuarantine_.exchange(true)) {
        warn("cache entry %s is invalid (%s); quarantined under %s and "
             "re-simulating. Further quarantines are silent; see the "
             "sweep.cache_quarantined stat.",
             path.c_str(), reason, qdir.string().c_str());
    }
}

void
ResultCache::noteWriteError(const std::string &what) const
{
    writeErrors_.fetch_add(1, std::memory_order_relaxed);
    if (!warnedWrite_.exchange(true)) {
        warn("%s; continuing uncached. Further cache write errors are "
             "silent; see the sweep.cache_write_errors stat.",
             what.c_str());
    }
}

bool
ResultCache::load(const SweepPoint &point, Measurement &out) const
{
    if (!enabled())
        return false;
    const std::string path = pathFor(point);
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false; // never cached: the ordinary miss
    std::ostringstream buf;
    buf << is.rdbuf();
    is.close();
    const std::string text = buf.str();
    if (text.empty()) {
        quarantineEntry(path, "empty");
        return false;
    }
    try {
        const trace::JsonValue doc = trace::JsonValue::parse(text);
        if (!doc.isObject()) {
            quarantineEntry(path, "schema");
            return false;
        }
        // Valid JSON of the wrong shape (legacy schema, foreign file)
        // is as much a miss as a truncated entry — counted, moved
        // aside, re-simulated.
        const trace::JsonValue *schema = doc.find("schema");
        if (!schema || !schema->isNumber() ||
            schema->asNumber() != kCacheEntrySchema) {
            schemaMisses_.fetch_add(1, std::memory_order_relaxed);
            quarantineEntry(path, "schema");
            return false;
        }
        const trace::JsonValue *version = doc.find("version");
        const trace::JsonValue *key = doc.find("key");
        const trace::JsonValue *sum = doc.find("sum");
        const trace::JsonValue *meas = doc.find("measurement");
        if (!version || !key || !sum || !meas) {
            schemaMisses_.fetch_add(1, std::memory_order_relaxed);
            quarantineEntry(path, "schema");
            return false;
        }
        if (version->asString() != kSimVersionTag)
            return false; // stale simulator version: plain miss
        if (key->asString() != pointKey(point))
            return false; // hash collision: plain miss
        Measurement m = measurementFromValue(*meas);
        // The checksum covers the canonical re-serialization of the
        // parsed measurement: JsonValue preserves member order and
        // doubles round-trip losslessly, so any byte that made it
        // through the parser but differs from what store() wrote
        // changes the sum.
        if (sum->asString() != hashHex(fnv1a(measurementToJson(m)))) {
            quarantineEntry(path, "checksum");
            return false;
        }
        out = std::move(m);
        return true;
    } catch (const FatalError &) {
        quarantineEntry(path, "parse");
        return false;
    }
}

bool
ResultCache::store(const SweepPoint &point, const Measurement &m) const
{
    if (!enabled())
        return false;
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) {
        noteWriteError("cannot create cache dir " + dir_ + ": " +
                       ec.message());
        return false;
    }
    const std::string path = pathFor(point);
    // Unique temp name per writer, then an atomic rename: concurrent
    // processes computing the same point cannot interleave writes.
    std::ostringstream tmpName;
    tmpName << path << ".tmp." << ::getpid() << "."
            << std::this_thread::get_id();
    const std::string tmp = tmpName.str();
    bool written = false;
    {
        std::ofstream os(tmp);
        if (!os) {
            noteWriteError("cannot write cache entry " + tmp);
            return false;
        }
        trace::JsonWriter w(os);
        w.beginObject();
        w.key("schema").number(std::uint64_t(kCacheEntrySchema));
        w.key("version").string(kSimVersionTag);
        w.key("key").string(pointKey(point));
        w.key("sum").string(hashHex(fnv1a(measurementToJson(m))));
        w.key("measurement");
        writeMeasurement(w, m);
        w.endObject();
        os << '\n';
        os.flush();
        // A full disk (ENOSPC) surfaces here as a failed stream, not
        // an exception: detect it before the rename would publish a
        // short entry.
        written = static_cast<bool>(os);
    }
    if (!written) {
        fs::remove(tmp, ec);
        noteWriteError("short write on cache entry " + tmp);
        return false;
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        noteWriteError("cannot commit cache entry " + path + ": " +
                       ec.message());
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// SweepRunner
// ---------------------------------------------------------------------

SweepRunner::SweepRunner(const SweepConfig &config)
    : stats::StatGroup("sweep"),
      pointsTotal(this, "points_total", "sweep points submitted"),
      cacheHits(this, "cache_hits", "points served from the cache"),
      cacheMisses(this, "cache_misses", "points requiring simulation"),
      pointsFailed(this, "points_failed",
                   "simulated points that cannot operate"),
      pointsInfraFailed(this, "points_infra_failed",
                        "points lost to crashes, deadlines or escaped "
                        "exceptions"),
      pointsRetried(this, "points_retried",
                    "always 0: each point is attempted once (kept for "
                    "perfbench)"),
      pointsTimedOut(this, "points_timed_out",
                     "point deadlines that expired"),
      sweepSeconds(this, "sweep_seconds", "wall-clock spent in run()"),
      pointsPerSec(this, "points_per_sec", "lifetime sweep throughput",
                   [this] {
                       const double s = sweepSeconds.value();
                       return s > 0 ? pointsTotal.value() / s : 0.0;
                   }),
      cacheQuarantined(this, "cache_quarantined",
                       "invalid cache entries moved to quarantine",
                       [this] {
                           return static_cast<double>(
                               cache_.quarantined());
                       }),
      cacheWriteErrors(this, "cache_write_errors",
                       "cache stores that failed (entry not written)",
                       [this] {
                           return static_cast<double>(
                               cache_.writeErrors());
                       }),
      config_(config),
      cache_(config.cacheDir)
{
    if (config_.jobs) {
        ownedPool_ = std::make_unique<ThreadPool>(config_.jobs);
        pool_ = ownedPool_.get();
    } else {
        pool_ = &ThreadPool::global();
    }
}

namespace {
/** pid of the host-time track group in Chrome traces. */
constexpr int kHostTracePid = 100;
} // namespace

SweepRunner::~SweepRunner() = default;

SweepRunner &
SweepRunner::global()
{
    static SweepRunner runner;
    return runner;
}

void
SweepRunner::setRobust(const RobustConfig &robust)
{
    std::lock_guard<std::mutex> lock(robustMutex_);
    config_.robust = robust;
}

RobustConfig
SweepRunner::robust() const
{
    std::lock_guard<std::mutex> lock(robustMutex_);
    return config_.robust;
}

void
SweepRunner::setPointHook(std::function<void(const SweepPoint &)> hook)
{
    pointHook_ = std::move(hook);
}

std::vector<PointFailure>
SweepRunner::lastFailures() const
{
    std::lock_guard<std::mutex> lock(failuresMutex_);
    return lastFailures_;
}

std::vector<PointFailure>
SweepRunner::allFailures() const
{
    std::lock_guard<std::mutex> lock(failuresMutex_);
    return allFailures_;
}

void
SweepRunner::setTraceWriter(telemetry::ChromeTraceWriter *writer)
{
    std::lock_guard<std::mutex> lock(traceMutex_);
    traceWriter_ = writer;
    hostLanes_.clear();
    if (writer) {
        writer->setProcessName(kHostTracePid, "sweep host time");
        writer->setThreadName(kHostTracePid, 0, "sweep main");
    }
}

int
SweepRunner::hostLaneFor(telemetry::ChromeTraceWriter &writer)
{
    std::lock_guard<std::mutex> lock(traceMutex_);
    auto [it, inserted] = hostLanes_.emplace(
        std::this_thread::get_id(),
        static_cast<int>(hostLanes_.size()) + 1);
    if (inserted) {
        writer.setThreadName(kHostTracePid, it->second,
                             "worker " + std::to_string(it->second));
    }
    return it->second;
}

namespace {

/** Short human label for trace slices and progress reporting. */
std::string
pointLabel(const SweepPoint &point)
{
    std::string benches;
    for (const std::string &name : point.benches) {
        if (!benches.empty())
            benches += "+";
        benches += name;
    }
    return benches + "/" + cpu::renamerKindName(point.kind) + "/" +
           std::to_string(point.physRegs);
}

/** A point the infrastructure failed to answer: never cached. */
Measurement
infraFailure(std::string error)
{
    Measurement m;
    m.ok = false;
    m.infra = true;
    m.error = std::move(error);
    return m;
}

/** Atomic tmp+rename write of a child's result document. */
bool
writeChildResult(const std::string &path, const std::string &doc)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::trunc);
        if (!os)
            return false;
        os << doc << '\n';
        os.flush();
        if (!os)
            return false;
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    return !ec;
}

/**
 * Live sweep progress on stderr, opt-in via VCA_PROGRESS=1. On a TTY
 * the line rewrites in place; piped output gets occasional plain
 * lines instead. Aggregate host MIPS comes from the process-wide
 * HostStats accumulator the workers feed.
 */
struct SweepProgress
{
    bool enabled = false;
    bool tty = false;
    size_t total = 0;    ///< unique points in this batch
    size_t cached = 0;
    size_t toSimulate = 0;
    std::mutex mutex;
    size_t running = 0;
    size_t simulated = 0;
    size_t lastPrinted = SIZE_MAX;

    void
    init(size_t uniquePoints, size_t cacheHits)
    {
        const char *pv = std::getenv("VCA_PROGRESS");
        enabled = pv && *pv && std::strcmp(pv, "0") != 0;
        if (!enabled)
            return;
        tty = isatty(fileno(stderr)) != 0;
        total = uniquePoints;
        cached = cacheHits;
        toSimulate = uniquePoints - cacheHits;
        render(false);
    }

    void
    onStart()
    {
        if (!enabled)
            return;
        std::lock_guard<std::mutex> lock(mutex);
        ++running;
        if (tty)
            render(false);
    }

    void
    onFinish()
    {
        if (!enabled)
            return;
        std::lock_guard<std::mutex> lock(mutex);
        --running;
        ++simulated;
        // Piped output: only ~10 lines per batch.
        const size_t step = std::max<size_t>(1, toSimulate / 10);
        if (tty || simulated % step == 0 || simulated == toSimulate)
            render(false);
    }

    void
    finish()
    {
        if (!enabled)
            return;
        std::lock_guard<std::mutex> lock(mutex);
        render(true);
    }

    void
    render(bool final)
    {
        const size_t done = cached + simulated;
        if (!tty && !final && done == lastPrinted)
            return;
        lastPrinted = done;
        const double mips = stats::HostStats::global().simMips.value();
        std::fprintf(stderr,
                     "%ssweep: %zu/%zu done (%zu cached), %zu running, "
                     "%.1f MIPS%s",
                     tty ? "\r\x1b[K" : "", done, total, cached, running,
                     mips, tty && !final ? "" : "\n");
        std::fflush(stderr);
    }
};

} // namespace

Measurement
SweepRunner::executePoint(const SweepPoint &point) const
{
    if (pointHook_)
        pointHook_(point);
    RunOptions opts = point.opts;
    opts.seed = pointSeed(point);
    std::vector<const isa::Program *> programs;
    programs.reserve(point.benches.size());
    for (const std::string &name : point.benches) {
        programs.push_back(wload::cachedProgram(
            wload::profileByName(name), point.windowed));
    }
    return runTiming(programs, point.kind, point.physRegs, opts);
}

Measurement
SweepRunner::attemptPoint(const SweepPoint &point,
                          const RobustConfig &robust, bool &timedOut) const
{
    timedOut = false;
    std::error_code ec;
    const fs::path tmpDir =
        robust.isolate ? fs::temp_directory_path(ec) : fs::path();
    pid_t pid = -1;
    if (robust.isolate && !ec) {
        // Buffered stdio written before the fork must not be flushed
        // twice (once by each process) after it.
        std::fflush(stdout);
        std::fflush(stderr);
        pid = ::fork();
        if (pid < 0)
            ec.assign(errno, std::generic_category());
    }
    if (pid < 0) {
        if (ec) {
            static std::atomic<bool> warnedNoIsolation{false};
            if (!warnedNoIsolation.exchange(true)) {
                warn("cannot isolate sweep points (%s); running them "
                     "in-process", ec.message().c_str());
            }
        }
        try {
            return executePoint(point);
        } catch (const std::exception &e) {
            // runTiming absorbs FatalError itself; anything that
            // reaches here is a simulator bug. Fail the point, never
            // the batch.
            return infraFailure(e.what());
        } catch (...) {
            return infraFailure(
                "non-standard exception escaped the simulation");
        }
    }

    // One result file per worker, named by the worker's pid.
    const auto resultPathFor = [&tmpDir, &point](pid_t worker) {
        std::ostringstream name;
        name << "vca-point-" << hashHex(pointHash(point)) << "."
             << worker << ".json";
        return (tmpDir / name.str()).string();
    };
    if (pid == 0) {
        // Child. Only _exit() from here: exit() would run the parent's
        // atexit handlers and flush its inherited streams.
        const std::string resultPath = resultPathFor(::getpid());
        int code = 0;
        try {
            // Host-time deltas around the simulation travel back in
            // the result file so isolation does not lose MIPS
            // accounting.
            const stats::HostStats &hs = stats::HostStats::global();
            const double sec0 = hs.simSeconds.value();
            const double insts0 = hs.simInsts.value();
            const double cycles0 = hs.simCycles.value();
            const double skipped0 = hs.simCyclesSkipped.value();
            const double fsec0 = hs.funcSeconds.value();
            const double finsts0 = hs.funcInsts.value();
            const Measurement m = executePoint(point);
            std::ostringstream doc;
            trace::JsonWriter w(doc);
            w.beginObject();
            w.key("exec_ok").boolean(true);
            w.key("host").beginObject();
            w.key("seconds").number(hs.simSeconds.value() - sec0);
            w.key("insts").number(hs.simInsts.value() - insts0);
            w.key("cycles").number(hs.simCycles.value() - cycles0);
            w.key("skipped_cycles")
                .number(hs.simCyclesSkipped.value() - skipped0);
            w.endObject();
            w.key("func").beginObject();
            w.key("seconds").number(hs.funcSeconds.value() - fsec0);
            w.key("insts").number(hs.funcInsts.value() - finsts0);
            w.endObject();
            w.key("measurement");
            writeMeasurement(w, m);
            w.endObject();
            code = writeChildResult(resultPath, doc.str()) ? 0 : 112;
        } catch (const std::exception &e) {
            std::ostringstream doc;
            trace::JsonWriter w(doc);
            w.beginObject();
            w.key("exec_ok").boolean(false);
            w.key("error").string(e.what());
            w.endObject();
            code = writeChildResult(resultPath, doc.str()) ? 0 : 112;
        } catch (...) {
            code = 111;
        }
        ::_exit(code);
    }

    // Parent: reap with the optional deadline. Elapsed time is compared
    // in double seconds, so no deadline value can overflow a clock.
    const std::string resultPath = resultPathFor(pid);
    const bool hasDeadline = robust.pointTimeoutSec > 0;
    const auto start = std::chrono::steady_clock::now();
    int status = 0;
    for (;;) {
        const pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid)
            break;
        if (r < 0) {
            if (errno == EINTR)
                continue;
            const std::string error =
                std::string("waitpid failed: ") + std::strerror(errno);
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            fs::remove(resultPath, ec);
            return infraFailure(error);
        }
        if (hasDeadline && std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                                   .count() >= robust.pointTimeoutSec) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            timedOut = true;
            fs::remove(resultPath, ec);
            std::ostringstream msg;
            msg << "worker exceeded the " << robust.pointTimeoutSec
                << "s point deadline";
            return infraFailure(msg.str());
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        fs::remove(resultPath, ec);
        std::ostringstream msg;
        if (WIFSIGNALED(status))
            msg << "worker killed by signal " << WTERMSIG(status);
        else
            msg << "worker exited with status " << WEXITSTATUS(status);
        return infraFailure(msg.str());
    }

    std::string text;
    {
        std::ifstream is(resultPath, std::ios::binary);
        if (!is)
            return infraFailure(
                "worker exited cleanly but left no result file");
        std::ostringstream buf;
        buf << is.rdbuf();
        text = buf.str();
    }
    fs::remove(resultPath, ec);
    try {
        const trace::JsonValue doc = trace::JsonValue::parse(text);
        const trace::JsonValue *execOk = doc.find("exec_ok");
        if (!execOk)
            fatal("missing exec_ok");
        if (!execOk->asBool()) {
            // The child caught an exception that escaped the
            // simulation: the in-process path's infra failure.
            const trace::JsonValue *e = doc.find("error");
            return infraFailure(e ? e->asString()
                                  : "unknown worker error");
        }
        if (const trace::JsonValue *host = doc.find("host")) {
            const trace::JsonValue *sec = host->find("seconds");
            const trace::JsonValue *insts = host->find("insts");
            const trace::JsonValue *cycles = host->find("cycles");
            const trace::JsonValue *skipped =
                host->find("skipped_cycles");
            if (sec && insts && cycles && skipped &&
                sec->asNumber() > 0) {
                stats::HostStats::global().record(
                    sec->asNumber(), insts->asNumber(),
                    cycles->asNumber(), skipped->asNumber());
            }
        }
        if (const trace::JsonValue *func = doc.find("func")) {
            const trace::JsonValue *sec = func->find("seconds");
            const trace::JsonValue *insts = func->find("insts");
            if (sec && insts && sec->asNumber() > 0) {
                stats::HostStats::global().recordFunctional(
                    sec->asNumber(), insts->asNumber());
            }
        }
        const trace::JsonValue *meas = doc.find("measurement");
        if (!meas)
            fatal("missing measurement");
        return measurementFromValue(*meas);
    } catch (const std::exception &e) {
        return infraFailure(std::string("worker result unreadable: ") +
                            e.what());
    }
}

std::vector<Measurement>
SweepRunner::run(const std::vector<SweepPoint> &points)
{
    const auto start = std::chrono::steady_clock::now();
    const RobustConfig robustCfg = robust();
    std::vector<Measurement> results(points.size());

    // Coalesce identical points: simulate (or load) each config once.
    struct Work
    {
        const SweepPoint *point;
        std::uint64_t hash;
        std::vector<size_t> slots;
    };
    std::vector<Work> unique;
    {
        std::map<std::string, size_t> byKey;
        for (size_t i = 0; i < points.size(); ++i) {
            std::string key = pointKey(points[i]);
            const std::uint64_t hash = fnv1a(key);
            auto [it, inserted] =
                byKey.emplace(std::move(key), unique.size());
            if (inserted)
                unique.push_back(Work{&points[i], hash, {}});
            unique[it->second].slots.push_back(i);
        }
    }
    pointsTotal += static_cast<double>(points.size());

    struct Latch
    {
        std::mutex mutex;
        std::condition_variable cv;
        size_t remaining = 0;
    } latch;
    std::uint64_t hits = 0, misses = 0, failed = 0;
    std::uint64_t infraFailed = 0, timedOut = 0;
    std::vector<PointFailure> failures;
    std::mutex statsMutex;

    telemetry::ChromeTraceWriter *tw;
    {
        std::lock_guard<std::mutex> lock(traceMutex_);
        tw = traceWriter_;
    }

    std::vector<const Work *> toRun;
    for (const Work &w : unique) {
        Measurement m;
        const double hitStart = tw ? tw->hostNowUs() : 0;
        if (cache_.load(*w.point, m)) {
            ++hits;
            if (tw) {
                tw->slice(kHostTracePid, 0, "hit " + pointLabel(*w.point),
                          hitStart, tw->hostNowUs() - hitStart);
            }
            for (size_t slot : w.slots)
                results[slot] = m;
        } else {
            ++misses;
            toRun.push_back(&w);
        }
    }
    latch.remaining = toRun.size();

    if (!toRun.empty() && robustCfg.pointTimeoutSec > 0 &&
        !robustCfg.isolate) {
        static std::atomic<bool> warnedTimeout{false};
        if (!warnedTimeout.exchange(true)) {
            warn("VCA_POINT_TIMEOUT has no effect without isolation "
                 "(an in-process worker thread cannot be killed "
                 "safely); set VCA_ISOLATE=1 to enforce deadlines");
        }
    }

    SweepProgress progress;
    progress.init(unique.size(), hits);

    for (const Work *w : toRun) {
        pool_->submit([this, w, &results, &latch, &statsMutex, &failed,
                       &infraFailed, &timedOut, &failures, &robustCfg,
                       tw, &progress] {
            progress.onStart();
            const int lane = tw ? hostLaneFor(*tw) : 0;
            const double simStart = tw ? tw->hostNowUs() : 0;
            bool pointTimedOut = false;
            const Measurement m =
                attemptPoint(*w->point, robustCfg, pointTimedOut);
            if (tw) {
                tw->slice(kHostTracePid, lane,
                          "sim " + pointLabel(*w->point), simStart,
                          tw->hostNowUs() - simStart);
            }
            // Infra failures are transient by definition — never
            // memoize one, or a crash would poison every later run.
            if (!m.infra)
                cache_.store(*w->point, m);
            for (size_t slot : w->slots)
                results[slot] = m;
            {
                std::lock_guard<std::mutex> lock(statsMutex);
                if (!m.ok)
                    ++failed;
                if (m.infra) {
                    ++infraFailed;
                    failures.push_back(PointFailure{
                        pointLabel(*w->point), w->hash, m.error});
                }
                timedOut += pointTimedOut;
            }
            progress.onFinish();
            std::lock_guard<std::mutex> lock(latch.mutex);
            if (--latch.remaining == 0)
                latch.cv.notify_all();
        });
    }
    {
        std::unique_lock<std::mutex> lock(latch.mutex);
        latch.cv.wait(lock, [&latch] { return latch.remaining == 0; });
    }
    progress.finish();

    // Deterministic order for reports and tests, whatever the workers'
    // scheduling.
    std::sort(failures.begin(), failures.end(),
              [](const PointFailure &a, const PointFailure &b) {
                  return a.label != b.label ? a.label < b.label
                                            : a.hash < b.hash;
              });

    {
        std::lock_guard<std::mutex> lock(failuresMutex_);
        lastFailures_ = failures;
        allFailures_.insert(allFailures_.end(), failures.begin(),
                            failures.end());
    }

    cacheHits += static_cast<double>(hits);
    cacheMisses += static_cast<double>(misses);
    pointsFailed += static_cast<double>(failed);
    pointsInfraFailed += static_cast<double>(infraFailed);
    pointsTimedOut += static_cast<double>(timedOut);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    sweepSeconds += seconds;

    const char *report = std::getenv("VCA_SWEEP_STATS");
    if (report && *report) {
        // The infra column appears only when nonzero, so the clean
        // path's report stays byte-identical to what it always was.
        std::string extra;
        if (infraFailed) {
            char buf[48];
            std::snprintf(buf, sizeof buf, ", %llu infra-failed",
                          (unsigned long long)infraFailed);
            extra = buf;
        }
        std::fprintf(stderr,
                     "sweep: %zu points (%zu unique): %llu cache hits, "
                     "%llu simulated, %llu inoperable%s, %.2fs (%.1f "
                     "points/s)\n",
                     points.size(), unique.size(),
                     (unsigned long long)hits, (unsigned long long)misses,
                     (unsigned long long)failed, extra.c_str(), seconds,
                     seconds > 0 ? points.size() / seconds : 0.0);
    }
    return results;
}

Measurement
SweepRunner::runPoint(const SweepPoint &point)
{
    return run({point}).front();
}

} // namespace vca::analysis
