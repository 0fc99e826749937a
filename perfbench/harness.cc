/**
 * @file
 * perfbench harness: one round of one benchmark workload, in a fresh
 * process, calling only the simulator libraries' public functions.
 *
 *   perfbench_harness --workload NAME --seed N [--cache DIR]
 *                     [--phase round|fill|matched] [--fill FILE]
 *                     [--trace FILE]
 *
 * --cache is required by the round and fill phases.
 *
 * Phases:
 *   round    set up (generate programs, open the result cache), then
 *            run the workload's points back to back through one
 *            single-worker SweepRunner and time that region. With
 *            --trace, spans around every library call go to a Chrome
 *            trace, and after the timed region the harness replays each
 *            detailed point on a core it builds itself to read the
 *            core's stat groups, and times ResultCache::store probes.
 *   fill     (fig-warm) fill the result cache before timing and write
 *            each point's Measurement, one JSON document per line, to
 *            --fill, so the round can compare every hit against it.
 *   matched  (sampled-whole) run each sampled point and the detailed
 *            run of the same span, for the sampled-vs-detailed error.
 *
 * The seed picks each workload's points from that workload's fixed
 * pool (README.md lists the pools); the library sees only the
 * generated points and programs. The result is one JSON document on
 * stdout; run.py turns rounds into metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiment.hh"
#include "analysis/runner.hh"
#include "cpu/ooo_cpu.hh"
#include "cpu/params.hh"
#include "sim/logging.hh"
#include "stats/host_stats.hh"
#include "telemetry/chrome_trace.hh"
#include "trace/json.hh"
#include "wload/generator.hh"
#include "wload/profile.hh"

extern char **environ;

namespace {

using namespace vca;
using analysis::Measurement;
using analysis::RunOptions;
using analysis::SweepPoint;
using cpu::RenamerKind;
using Clock = std::chrono::steady_clock;

// Taken during static initialization, before main(): set-up time
// counts from here.
const Clock::time_point processStart = Clock::now();

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---------------------------------------------------------------------
// Seeded choice
// ---------------------------------------------------------------------

std::uint64_t
splitmix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 0xcbf29ce484222325ULL)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Index in [0, n) picked by (seed, salt): a pure function of both. */
size_t
pick(std::uint64_t seed, const std::string &salt, size_t n)
{
    return static_cast<size_t>(splitmix64(seed ^ fnv1a(salt)) % n);
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

// ---------------------------------------------------------------------
// Workloads: fixed pools, seeded picks
// ---------------------------------------------------------------------

const std::vector<RenamerKind> kAllKinds = {
    RenamerKind::Baseline, RenamerKind::ConvWindow,
    RenamerKind::IdealWindow, RenamerKind::Vca};

struct Workload
{
    std::string name;
    std::vector<SweepPoint> points;
    /** Complete-program path lengths computed after the points. */
    std::vector<std::pair<std::string, bool>> pathLengths;
    /** Also derive analysis::executionTime for every point. */
    bool executionTimes = false;
    /** Points must come from a cache filled before timing. */
    bool warm = false;
};

/** The seed's permutation of items (a Fisher-Yates shuffle). */
template <typename T>
std::vector<T>
shuffled(std::vector<T> items, std::uint64_t seed, const std::string &salt)
{
    for (size_t i = items.size(); i > 1; --i)
        std::swap(items[i - 1],
                  items[pick(seed, salt + "/" + std::to_string(i), i)]);
    return items;
}

Workload
smtMembound(std::uint64_t seed)
{
    // ~89% of simulated cycles are memory stalls on these mixes.
    static const std::vector<std::string> benches = {
        "mcf", "gcc_expr", "parser", "gap"};
    static const std::vector<std::pair<RenamerKind, unsigned>> configs = {
        {RenamerKind::Vca, 192}, {RenamerKind::Vca, 256},
        {RenamerKind::Baseline, 320}, {RenamerKind::Baseline, 448}};
    Workload w;
    w.name = "smt-membound";
    RunOptions opts;
    opts.numThreads = 4;
    opts.stopOnFirstThread = true;
    opts.warmupInsts = 5'000;
    opts.measureInsts = 10'000;
    for (const auto &[kind, regs] : configs) {
        // The seed orders the mix; every rotation of it runs, so each
        // benchmark takes each hardware-thread slot once per config.
        const auto order = shuffled(
            benches, seed,
            std::string("mix/") + cpu::renamerKindName(kind) + "/" +
                std::to_string(regs));
        for (size_t r = 0; r < order.size(); ++r) {
            SweepPoint p;
            for (size_t t = 0; t < order.size(); ++t)
                p.benches.push_back(order[(r + t) % order.size()]);
            p.windowed = false; // Figure 7: SMT without windows
            p.kind = kind;
            p.physRegs = regs;
            p.opts = opts;
            w.points.push_back(p);
        }
    }
    return w;
}

Workload
sampledWhole(std::uint64_t seed)
{
    Workload w;
    w.name = "sampled-whole";
    RunOptions opts;
    opts.mode = analysis::SimMode::Sampled;
    opts.measureInsts = 1'000'000'000; // whole program: until HALT
    opts.samplePeriodInsts = 50'000;
    opts.sampleQuantumInsts = 2'000;
    opts.sampleDetailWarmInsts = 1'000;
    for (const wload::BenchProfile &p : wload::spec2000Profiles()) {
        // The seed shifts where the sample grid starts.
        RunOptions o = opts;
        o.warmupInsts = 10'000 + 5'000 * pick(seed, "ff/" + p.name, 8);
        w.points.push_back(
            analysis::makePoint(p.name, RenamerKind::Vca, 192, o));
    }
    return w;
}

Workload
figWarm(std::uint64_t seed)
{
    static const std::vector<unsigned> sizes = {128, 160, 192, 224, 256};
    Workload w;
    w.name = "fig-warm";
    w.warm = true;
    // Three of the five sizes; the hit path does not depend on the
    // instruction budget, so the fill uses short seeded budgets.
    std::vector<unsigned> chosen = sizes;
    chosen.erase(chosen.begin() + pick(seed, "drop1", chosen.size()));
    chosen.erase(chosen.begin() + pick(seed, "drop2", chosen.size()));
    RunOptions opts;
    opts.warmupInsts = 1'000 + 500 * pick(seed, "warmup", 3);
    opts.measureInsts = 2'000 + 1'000 * pick(seed, "measure", 3);
    for (const wload::BenchProfile &p : wload::spec2000Profiles()) {
        for (RenamerKind kind : kAllKinds)
            for (unsigned regs : chosen)
                w.points.push_back(
                    analysis::makePoint(p.name, kind, regs, opts));
        w.pathLengths.emplace_back(p.name, false);
        w.pathLengths.emplace_back(p.name, true);
    }
    // As the figure benches do: path length x CPI for every point.
    w.executionTimes = true;
    return w;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, Workload &w)
{
    if (name == "smt-membound")
        w = smtMembound(seed);
    else if (name == "sampled-whole")
        w = sampledWhole(seed);
    else if (name == "fig-warm")
        w = figWarm(seed);
    else
        return false;
    return true;
}

std::vector<const isa::Program *>
programsOf(const SweepPoint &p)
{
    std::vector<const isa::Program *> progs;
    for (const std::string &b : p.benches)
        progs.push_back(
            wload::cachedProgram(wload::profileByName(b), p.windowed));
    return progs;
}

std::string
labelOf(const SweepPoint &p)
{
    std::string s;
    for (const std::string &b : p.benches)
        s += (s.empty() ? "" : "+") + b;
    return s + "/" + cpu::renamerKindName(p.kind) + "/" +
           std::to_string(p.physRegs);
}

// ---------------------------------------------------------------------
// Spans: recorded into the ChromeTraceWriter (in memory until finish)
// ---------------------------------------------------------------------

/** Bench-side spans live on their own trace process. */
constexpr int kBenchPid = 200;

class Tracer
{
  public:
    explicit Tracer(telemetry::ChromeTraceWriter *writer)
        : writer_(writer)
    {
        if (writer_) {
            writer_->setProcessName(kBenchPid, "perfbench calls");
            writer_->setThreadName(kBenchPid, 0, "harness");
        }
    }

    /** Open a span; args carry its id, parent and point. */
    void
    open(const std::string &name, int point, const char *phase)
    {
        if (!writer_)
            return;
        const int id = nextId_++;
        const int parent = stack_.empty() ? -1 : stack_.back();
        std::string args = "{\"span\":" + std::to_string(id) +
                           ",\"parent\":" + std::to_string(parent) +
                           ",\"point\":" + std::to_string(point);
        if (phase)
            args += std::string(",\"phase\":\"") + phase + "\"";
        args += "}";
        writer_->begin(kBenchPid, 0, name, writer_->hostNowUs(),
                       std::move(args));
        stack_.push_back(id);
    }

    void
    close()
    {
        if (!writer_)
            return;
        writer_->end(kBenchPid, 0, writer_->hostNowUs());
        stack_.pop_back();
    }

  private:
    telemetry::ChromeTraceWriter *writer_;
    std::vector<int> stack_;
    int nextId_ = 0;
};

class Span
{
  public:
    Span(Tracer &t, const std::string &name, int point = -1,
         const char *phase = nullptr)
        : t_(t)
    {
        t_.open(name, point, phase);
    }
    ~Span() { t_.close(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &t_;
};

// ---------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------

/** Empty when the measurement passes every check. */
std::string
checkMeasurement(const Measurement &m)
{
    if (m.infra)
        return "infra failure: " + m.error;
    if (!m.ok)
        return "point did not operate: " + m.error;
    InstCount sum = 0;
    for (InstCount t : m.threadInsts)
        sum += t;
    if (sum != m.insts)
        return "threadInsts sum " + std::to_string(sum) +
               " != insts " + std::to_string(m.insts);
    double frac = 0;
    for (const auto &[name, f] : m.cycleBreakdown)
        frac += f;
    if (m.cycleBreakdown.empty() || std::fabs(frac - 1.0) > 1e-9)
        return "cycleBreakdown fractions sum to " + std::to_string(frac);
    const auto &s = m.sampling;
    if (s.samples &&
        !(s.ciLoCpi <= s.meanCpi && s.meanCpi <= s.ciHiCpi))
        return "sampled CI does not contain its mean";
    return "";
}

struct Ops
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    record(const std::string &what, const std::string &error)
    {
        ++attempted;
        if (!error.empty()) {
            ++failed;
            if (errors.size() < 20)
                errors.push_back(what + ": " + error);
        }
    }

    /** A check outside any single operation: one more, failed. */
    void fail(const std::string &error) { record("workload", error); }
};

// ---------------------------------------------------------------------
// Traced-run counters read from the replayed cores' stat groups
// ---------------------------------------------------------------------

double
statValue(const stats::StatGroup &g, const std::string &path)
{
    const stats::StatBase *s = g.findPath(path);
    if (const auto *sc = dynamic_cast<const stats::Scalar *>(s))
        return sc->value();
    if (const auto *f = dynamic_cast<const stats::Formula *>(s))
        return f->value();
    return 0;
}

/** Counter sums over every replayed core's measured interval. */
const std::vector<std::pair<const char *, const char *>> kCoreStats = {
    {"cpu.cycles", "cpu.cycles"},
    {"cpu.insts", "cpu.committed_insts"},
    {"cpu.fetched", "cpu.fetched_insts"},
    {"cpu.squashed", "cpu.squashed_insts"},
    {"cpu.mem_stall_cycles", "cpu.cycle_accounting.mem_stall"},
    {"cpu.overflow_traps", "cpu.overflow_traps"},
    {"cpu.underflow_traps", "cpu.underflow_traps"},
    {"core.spills", "cpu.spills"},
    {"core.fills", "cpu.fills"},
    {"core.table_hits", "cpu.table_hits"},
    {"core.table_misses", "cpu.table_misses"},
    {"core.stalls_astq", "cpu.stalls_astq"},
    {"core.stalls_no_free_reg", "cpu.stalls_no_free_reg"},
    {"mem.dcache_accesses", "cpu.mem.dcache.accesses"},
    {"mem.dcache_misses", "cpu.mem.dcache.misses"},
    {"mem.l2_accesses", "cpu.mem.l2.accesses"},
    {"mem.l2_misses", "cpu.mem.l2.misses"},
    {"mem.dcache_mshr_rejects", "cpu.mem.dcache.mshr_rejects"},
    {"mem.l2_mshr_rejects", "cpu.mem.l2.mshr_rejects"},
    {"mem.icache_mshr_rejects", "cpu.mem.icache.mshr_rejects"},
    {"bpred.lookups", "cpu.bpred.lookups"},
    {"bpred.cond_mispredicts", "cpu.bpred.cond_mispredicts"},
    {"bpred.ras_mispredicts", "cpu.bpred.ras_mispredicts"},
};

cpu::CpuParams
paramsOf(const SweepPoint &p)
{
    // What runTiming builds for a sweep point (no ablation overrides).
    cpu::CpuParams params = cpu::CpuParams::preset(
        p.kind, p.physRegs, static_cast<unsigned>(p.benches.size()));
    params.dcachePorts = p.opts.dcachePorts;
    params.rngSeed = analysis::pointSeed(p);
    return params;
}

/**
 * Replay a detailed point on a core built here, with the warm-up,
 * resetStats() and measure steps runTiming takes, and add its stats.
 * Empty when cycles/insts match the sweep's measurement.
 */
std::string
replayDetailed(Tracer &tr, int idx, const SweepPoint &p,
               const Measurement &m, std::map<std::string, double> &sums)
{
    const cpu::CpuParams params = paramsOf(p);
    const auto programs = programsOf(p);
    std::unique_ptr<cpu::OooCpu> core;
    {
        Span s(tr, "OooCpu::OooCpu", idx);
        core = std::make_unique<cpu::OooCpu>(params, programs);
    }
    const RunOptions &o = p.opts;
    {
        Span s(tr, "OooCpu::run", idx, "warmup");
        core->run(o.warmupInsts, o.warmupInsts * 200 + 100'000,
                  o.stopOnFirstThread);
    }
    core->resetStats();
    cpu::RunResult res;
    {
        Span s(tr, "OooCpu::run", idx, "measure");
        res = core->run(o.measureInsts, o.measureInsts * 200 + 100'000,
                        o.stopOnFirstThread);
    }
    for (const auto &[key, path] : kCoreStats)
        sums[key] += statValue(*core, path);
    if (res.cycles != m.cycles || res.totalInsts != m.insts)
        return "replica cycles/insts " + std::to_string(res.cycles) +
               "/" + std::to_string(res.totalInsts) +
               " != runTiming " + std::to_string(m.cycles) + "/" +
               std::to_string(m.insts);
    return "";
}

// ---------------------------------------------------------------------
// Result document
// ---------------------------------------------------------------------

void
writeOps(trace::JsonWriter &w, const Ops &ops)
{
    w.key("attempted").number(ops.attempted);
    w.key("failed").number(ops.failed);
    w.key("errors").beginArray();
    for (const std::string &e : ops.errors)
        w.string(e);
    w.endArray();
}

void
writeNumbers(trace::JsonWriter &w, const char *key,
             const std::map<std::string, double> &values)
{
    w.key(key).beginObject();
    for (const auto &[k, v] : values)
        w.key(k).number(v);
    w.endObject();
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

bool
dirEmpty(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    return !fs::exists(dir, ec) || fs::is_empty(dir, ec);
}

analysis::SweepConfig
singleWorker(const std::string &cacheDir)
{
    analysis::SweepConfig cfg;
    cfg.jobs = 1;               // one worker: no neighbour contention
    cfg.cacheDir = cacheDir;    // private, never the cwd default
    cfg.robust = analysis::RobustConfig{}; // in-process, no fork
    return cfg;
}

// ---------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------

int
runFill(const Workload &w, const std::string &cacheDir,
        const std::string &fillPath)
{
    if (!dirEmpty(cacheDir))
        fatal("fill: cache directory '%s' is not empty", cacheDir.c_str());
    analysis::SweepRunner runner(singleWorker(cacheDir));
    const auto results = runner.run(w.points);
    Ops ops;
    std::ofstream out(fillPath);
    for (size_t i = 0; i < results.size(); ++i) {
        ops.record(labelOf(w.points[i]), checkMeasurement(results[i]));
        // JSON strings escape newlines, so one document fits a line.
        std::string doc = analysis::measurementToJson(results[i]);
        std::replace(doc.begin(), doc.end(), '\n', ' ');
        out << doc << '\n';
    }
    out.close();
    if (!out)
        fatal("fill: cannot write '%s'", fillPath.c_str());
    trace::JsonWriter jw(std::cout, 0);
    jw.beginObject();
    jw.key("phase").string("fill");
    writeOps(jw, ops);
    jw.endObject();
    std::cout << '\n';
    return 0;
}

int
runMatched(const Workload &w)
{
    Ops ops;
    trace::JsonWriter jw(std::cout, 0);
    jw.beginObject();
    jw.key("phase").string("matched");
    jw.key("points").beginArray();
    for (const SweepPoint &p : w.points) {
        const auto programs = programsOf(p);
        RunOptions sampled = p.opts;
        sampled.seed = analysis::pointSeed(p);
        // The detailed reference warms up over the same fast-forward
        // and measures the span the samples were drawn from.
        RunOptions detailed = sampled;
        detailed.mode = analysis::SimMode::Detailed;
        auto t0 = Clock::now();
        const Measurement ms =
            analysis::runTiming(programs, p.kind, p.physRegs, sampled);
        const double ts = secondsSince(t0);
        t0 = Clock::now();
        const Measurement md =
            analysis::runTiming(programs, p.kind, p.physRegs, detailed);
        const double td = secondsSince(t0);
        ops.record(labelOf(p) + " sampled", checkMeasurement(ms));
        ops.record(labelOf(p) + " detailed", checkMeasurement(md));
        jw.beginObject();
        jw.key("label").string(labelOf(p));
        jw.key("sampled_ipc").number(ms.ipc);
        jw.key("detailed_ipc").number(md.ipc);
        jw.key("sampled_s").number(ts);
        jw.key("detailed_s").number(td);
        jw.endObject();
    }
    jw.endArray();
    writeOps(jw, ops);
    jw.endObject();
    std::cout << '\n';
    return 0;
}

int
runRound(const Workload &w, const std::string &cacheDir,
         const std::string &fillPath, const std::string &tracePath)
{
    if (w.warm ? dirEmpty(cacheDir) : !dirEmpty(cacheDir))
        fatal("round: cache directory '%s' must be %s", cacheDir.c_str(),
              w.warm ? "filled first (--phase fill)" : "fresh and empty");
    std::unique_ptr<telemetry::ChromeTraceWriter> writer;
    if (!tracePath.empty())
        writer = std::make_unique<telemetry::ChromeTraceWriter>(tracePath);
    Tracer tr(writer.get());

    // ---- Set-up: every program the workload uses, and the cache.
    std::set<std::pair<std::string, bool>> programs(
        w.pathLengths.begin(), w.pathLengths.end());
    for (const SweepPoint &p : w.points)
        for (const std::string &b : p.benches)
            programs.emplace(b, p.windowed);
    std::unique_ptr<analysis::SweepRunner> runner;
    {
        Span setup(tr, "setup");
        for (const auto &[bench, windowed] : programs) {
            Span s(tr, "wload::cachedProgram");
            wload::cachedProgram(wload::profileByName(bench), windowed);
        }
        Span s(tr, "SweepRunner::SweepRunner");
        runner = std::make_unique<analysis::SweepRunner>(
            singleWorker(cacheDir));
    }
    const double setupSeconds = secondsSince(processStart);
    if (writer)
        runner->setTraceWriter(writer.get());

    // ---- Timed region: the points, then the path-length steps.
    auto &host = stats::HostStats::global();
    const double sim0 = host.simInsts.value(), func0 = host.funcInsts.value();
    const double simS0 = host.simSeconds.value();
    const double funcS0 = host.funcSeconds.value();
    const std::uint64_t calls0 = analysis::runTimingCallCount();
    std::vector<Measurement> results;
    std::vector<InstCount> pathInsts;
    const Clock::time_point t0 = Clock::now();
    {
        Span round(tr, "round");
        {
            Span s(tr, "SweepRunner::run");
            results = runner->run(w.points);
        }
        for (const auto &[bench, windowed] : w.pathLengths) {
            Span s(tr, "analysis::pathLength");
            pathInsts.push_back(analysis::pathLength(
                wload::profileByName(bench), windowed));
        }
        if (w.executionTimes) {
            for (size_t i = 0; i < w.points.size(); ++i) {
                Span s(tr, "analysis::executionTime", int(i));
                const SweepPoint &p = w.points[i];
                analysis::executionTime(
                    wload::profileByName(p.benches.front()), p.kind,
                    results[i]);
            }
        }
    }
    const double wallSeconds = secondsSince(t0);
    runner->setTraceWriter(nullptr);
    const double rssMb = peakRssMb();
    const double simInsts = host.simInsts.value() - sim0;
    const double funcInsts = host.funcInsts.value() - func0;
    std::map<std::string, double> hostTimes = {
        {"detail_s", host.simSeconds.value() - simS0},
        {"func_s", host.funcSeconds.value() - funcS0},
    };

    // ---- Output checks (untimed).
    std::vector<Measurement> expected;
    if (w.warm) {
        std::ifstream in(fillPath);
        std::string line;
        while (std::getline(in, line))
            expected.push_back(analysis::measurementFromJson(line));
        if (expected.size() != w.points.size())
            fatal("round: fill file '%s' has %zu entries, expected %zu",
                  fillPath.c_str(), expected.size(), w.points.size());
    }
    Ops ops;
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    std::vector<std::pair<std::string, std::string>> pointDigests;
    double ciPctSum = 0;
    unsigned ciPoints = 0, samples = 0;
    for (size_t i = 0; i < results.size(); ++i) {
        const Measurement &m = results[i];
        const std::string label = labelOf(w.points[i]);
        std::string err = checkMeasurement(m);
        if (err.empty() && w.warm && !(m == expected[i]))
            err = "cache hit differs from the measurement its fill "
                  "produced";
        ops.record(label, err);
        const std::string doc = analysis::measurementToJson(m);
        digest = fnv1a(doc, digest);
        pointDigests.emplace_back(label, hex16(fnv1a(doc)));
        if (m.sampling.samples && m.sampling.meanCpi > 0) {
            ciPctSum += 100.0 * (m.sampling.ciHiCpi - m.sampling.ciLoCpi) /
                        2.0 / m.sampling.meanCpi;
            ++ciPoints;
            samples += m.sampling.samples;
        }
    }
    if (w.warm && runner->cacheMisses.value() != 0)
        ops.fail(std::to_string(runner->cacheMisses.value()) +
                 " points missed the filled cache");
    double pathTotal = 0;
    for (size_t i = 0; i < pathInsts.size(); ++i) {
        const auto &[bench, windowed] = w.pathLengths[i];
        const std::string label =
            bench + (windowed ? "/windowed" : "/flat") + " pathLength";
        ops.record(label, pathInsts[i] ? "" : "zero path length");
        digest = fnv1a(label + "=" + std::to_string(pathInsts[i]), digest);
        pathTotal += static_cast<double>(pathInsts[i]);
    }

    // ---- Traced extras (untimed): core replays and store probes.
    std::map<std::string, double> counts;
    if (writer) {
        std::map<std::string, double> sums;
        for (const auto &[key, path] : kCoreStats)
            sums[key] = 0;
        for (size_t i = 0; i < results.size(); ++i) {
            const SweepPoint &p = w.points[i];
            const Measurement &m = results[i];
            if (!m.ok)
                continue;
            if (p.opts.mode == analysis::SimMode::Detailed) {
                if (w.warm)
                    continue; // hits: nothing was simulated
                Span s(tr, "replica", int(i));
                ops.record(labelOf(p) + " replica",
                           replayDetailed(tr, int(i), p, m, sums));
            } else {
                // A sampled point builds one fresh core per sample.
                Span s(tr, "replica", int(i));
                const cpu::CpuParams params = paramsOf(p);
                const auto progs = programsOf(p);
                for (unsigned k = 0; k < m.sampling.samples; ++k) {
                    Span c(tr, "OooCpu::OooCpu", int(i));
                    cpu::OooCpu core(params, progs);
                }
            }
        }
        if (!w.warm) {
            analysis::ResultCache probe(cacheDir + "/store-probe");
            Span s(tr, "probe");
            for (size_t i = 0; i < results.size(); ++i) {
                Span st(tr, "ResultCache::store", int(i));
                probe.store(w.points[i], results[i]);
            }
        }
        counts = sums;
        counts["wload.programs"] = static_cast<double>(programs.size());
        counts["runner.cache_hits"] = runner->cacheHits.value();
        counts["runner.cache_misses"] = runner->cacheMisses.value();
        counts["runner.points_failed"] = runner->pointsFailed.value();
        counts["runner.points_retried"] = runner->pointsRetried.value();
        counts["experiment.run_timing_calls"] =
            static_cast<double>(analysis::runTimingCallCount() - calls0);
        counts["func.insts"] = funcInsts + pathTotal;
        counts["sampling.samples"] = samples;
        counts["sampling.sim_insts"] = ciPoints ? simInsts : 0;
        counts["sampling.func_insts"] = ciPoints ? funcInsts : 0;
        if (!writer->finish())
            ops.fail("trace file could not be written");
    }
    trace::JsonWriter jw(std::cout, 0);
    jw.beginObject();
    jw.key("phase").string("round");
    jw.key("workload").string(w.name);
    jw.key("traced").boolean(writer != nullptr);
    jw.key("build_flags").string(PERFBENCH_BUILD_FLAGS);
    jw.key("setup_s").number(setupSeconds);
    jw.key("wall_s").number(wallSeconds);
    jw.key("insts").number(simInsts + funcInsts + pathTotal);
    jw.key("peak_rss_mb").number(rssMb);
    jw.key("ci95_halfwidth_pct")
        .number(ciPoints ? ciPctSum / ciPoints : 0.0);
    jw.key("digest").string(hex16(digest));
    jw.key("points").beginArray();
    for (const auto &[label, d] : pointDigests) {
        jw.beginArray().string(label).string(d).endArray();
    }
    jw.endArray();
    writeOps(jw, ops);
    writeNumbers(jw, "host", hostTimes);
    writeNumbers(jw, "counts", counts);
    jw.endObject();
    std::cout << '\n';
    return 0;
}

/** Every VCA_* variable is a knob the timed runs must not inherit. */
std::vector<std::string>
scrubVcaEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "VCA_", 4) == 0) {
            const char *eq = std::strchr(*e, '=');
            names.emplace_back(*e, eq ? size_t(eq - *e) : std::strlen(*e));
        }
    }
    for (const std::string &n : names)
        unsetenv(n.c_str());
    return names;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload NAME --seed N "
                 "[--cache DIR] [--phase round|fill|matched] "
                 "[--fill FILE] [--trace FILE]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    for (const std::string &n : scrubVcaEnvironment())
        std::fprintf(stderr, "perfbench: ignoring %s\n", n.c_str());
    setQuiet(true);

    std::map<std::string, std::string> args = {
        {"--phase", "round"}, {"--seed", "1"}};
    for (int i = 1; i + 1 < argc; i += 2)
        args[argv[i]] = argv[i + 1];
    const std::string phase = args["--phase"];
    if (argc % 2 == 0 || !args.count("--workload") ||
        (phase != "matched" && !args.count("--cache")))
        return usage();

    std::uint64_t seed = 0;
    try {
        seed = std::stoull(args["--seed"]);
    } catch (const std::exception &) {
        return usage();
    }
    Workload w;
    if (!makeWorkload(args["--workload"], seed, w)) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args["--workload"].c_str());
        return 2;
    }
    try {
        if (phase == "round")
            return runRound(w, args["--cache"], args["--fill"],
                            args["--trace"]);
        if (phase == "fill" && args.count("--fill"))
            return runFill(w, args["--cache"], args["--fill"]);
        if (phase == "matched")
            return runMatched(w);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return usage();
}
