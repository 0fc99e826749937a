#include "analysis/experiment.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <numeric>

#include "analysis/sampling.hh"
#include "func/func_sim.hh"
#include "sim/logging.hh"
#include "stats/host_stats.hh"
#include "telemetry/reg_cache_analyzer.hh"

namespace vca::analysis {

using cpu::RenamerKind;

namespace {

std::atomic<std::uint64_t> runTimingCalls{0};

void
applyOverrides(cpu::CpuParams &params, const ParamOverrides &ov)
{
    if (ov.vcaTableAssoc)
        params.vcaTableAssoc = ov.vcaTableAssoc;
    if (ov.astqEntries)
        params.astqEntries = ov.astqEntries;
    if (ov.rsidEntries)
        params.rsidEntries = ov.rsidEntries;
    if (ov.vcaRenamePorts)
        params.vcaRenamePorts = ov.vcaRenamePorts;
    if (ov.vcaCheckpointRecovery >= 0)
        params.vcaCheckpointRecovery = ov.vcaCheckpointRecovery != 0;
    if (ov.vcaDeadValueHints >= 0)
        params.vcaDeadValueHints = ov.vcaDeadValueHints != 0;
}

} // namespace

std::uint64_t
runTimingCallCount()
{
    return runTimingCalls.load();
}

bool
usesWindowedBinary(RenamerKind kind)
{
    return kind != RenamerKind::Baseline;
}

std::vector<std::pair<std::string, double>>
taxonomyLeaves(const cpu::OooCpu &cpu)
{
    using Buckets = cpu::TaxonomyBuckets;
    std::vector<std::pair<std::string, double>> leaves;
    for (unsigned l = 0; l < Buckets::numLeaves; ++l) {
        const auto leaf = static_cast<Buckets::Leaf>(l);
        leaves.emplace_back(Buckets::leafName(leaf),
                            cpu.cycleAccounting.taxonomy.leafValue(leaf));
    }
    return leaves;
}

std::vector<std::pair<std::string, double>>
deriveCycleBreakdown(
    const std::vector<std::pair<std::string, double>> &taxonomy,
    Cycle cycles)
{
    using Buckets = cpu::TaxonomyBuckets;
    using Accounting = cpu::CycleAccounting;
    std::vector<std::pair<std::string, double>> breakdown;
    if (taxonomy.empty())
        return breakdown;
    double sums[Accounting::numBuckets] = {};
    for (const auto &[name, count] : taxonomy) {
        unsigned l = 0;
        while (l < Buckets::numLeaves &&
               name != Buckets::leafName(static_cast<Buckets::Leaf>(l)))
            ++l;
        if (l == Buckets::numLeaves)
            fatal("unknown cycle-taxonomy leaf '%s'", name.c_str());
        const auto bucket =
            Accounting::bucketOf(static_cast<Buckets::Leaf>(l));
        if (bucket != Accounting::Bucket::NumBuckets)
            sums[static_cast<unsigned>(bucket)] += count;
    }
    const double cyc = std::max(1.0, double(cycles));
    for (unsigned b = 0; b < Accounting::numBuckets; ++b)
        breakdown.emplace_back(Accounting::bucketNames[b], sums[b] / cyc);
    return breakdown;
}

cpu::CpuParams
cpuParamsFor(RenamerKind kind, unsigned physRegs, unsigned threads,
             const RunOptions &opts)
{
    cpu::CpuParams params = cpu::CpuParams::preset(kind, physRegs, threads);
    params.dcachePorts = opts.dcachePorts;
    applyOverrides(params, opts.overrides);
    if (opts.seed)
        params.rngSeed = opts.seed;
    return params;
}

void
IntervalSum::add(const cpu::OooCpu &cpu, const cpu::RunResult &res)
{
    cycles += res.cycles;
    insts += res.totalInsts;
    dcacheAccesses += res.dcacheAccesses;
    if (threadInsts.size() < res.threadInsts.size())
        threadInsts.resize(res.threadInsts.size(), 0);
    for (size_t i = 0; i < res.threadInsts.size(); ++i)
        threadInsts[i] += res.threadInsts[i];
    const auto leaves = taxonomyLeaves(cpu);
    if (taxonomy.empty())
        taxonomy = leaves;
    else
        for (size_t l = 0; l < leaves.size(); ++l)
            taxonomy[l].second += leaves[l].second;
    // Raw counters the ablation benches drill into. Only present on
    // configurations that register them (the VCA renamer), so one
    // core contributes the same names to every interval.
    const auto *group = static_cast<const stats::StatGroup *>(&cpu);
    size_t c = 0;
    for (const char *name : {"stalls_table_conflict", "stalls_astq"}) {
        const auto *s =
            dynamic_cast<const stats::Scalar *>(group->find(name));
        if (!s)
            continue;
        if (c == counters.size())
            counters.emplace_back(name, 0.0);
        counters[c++].second += s->value();
    }
    ++intervals;
}

void
IntervalSum::fill(Measurement &m) const
{
    m.ok = true;
    m.cycles = cycles;
    m.insts = insts;
    m.ipc = cycles ? double(insts) / double(cycles) : 0.0;
    m.cpi = insts ? double(cycles) / double(insts) : 0.0;
    m.dcacheAccesses = dcacheAccesses;
    m.dcacheAccPerInst = insts ? dcacheAccesses / double(insts) : 0.0;
    m.threadInsts = threadInsts;
    for (InstCount ti : threadInsts) {
        m.threadCpi.push_back(ti ? double(cycles) / double(ti) : 0.0);
        m.threadDcachePerInst.push_back(m.dcacheAccPerInst);
    }
    m.taxonomy = taxonomy;
    m.cycleBreakdown = deriveCycleBreakdown(taxonomy, cycles);
    m.counters = counters;
}

Measurement
runTiming(const std::vector<const isa::Program *> &programs,
          RenamerKind kind, unsigned physRegs, const RunOptions &opts)
{
    runTimingCalls.fetch_add(1, std::memory_order_relaxed);
    const cpu::CpuParams params = cpuParamsFor(
        kind, physRegs, static_cast<unsigned>(programs.size()), opts);
    if (opts.mode != SimMode::Detailed)
        return runSampledTiming(programs, opts, params);

    Measurement m;
    try {
        // Host-throughput accounting covers the whole detailed
        // simulation (warmup + measured interval): that is the wall
        // time a sweep point actually costs.
        const auto hostStart = std::chrono::steady_clock::now();
        cpu::OooCpu cpu(params, programs);
        std::unique_ptr<telemetry::RegCacheAnalyzer> analyzer;
        if (opts.regTelemetry)
            analyzer = telemetry::attachRegCacheAnalyzer(cpu);
        cpu.run(opts.warmupInsts, cpu::cycleBudget(opts.warmupInsts),
                opts.stopOnFirstThread);
        const InstCount warmupInsts = cpu.committedTotal.value();
        const Cycle warmupCycles = cpu.currentCycle();
        cpu.resetStats();
        auto res = cpu.run(opts.measureInsts,
                           cpu::cycleBudget(opts.measureInsts),
                           opts.stopOnFirstThread);
        const std::chrono::duration<double> hostElapsed =
            std::chrono::steady_clock::now() - hostStart;
        // Telemetry runs carry observer overhead by design; keep them
        // out of the host-throughput trajectory.
        if (!opts.regTelemetry) {
            stats::HostStats::global().record(
                hostElapsed.count(),
                static_cast<double>(warmupInsts + res.totalInsts),
                static_cast<double>(warmupCycles + res.cycles),
                static_cast<double>(cpu.skippedCycles()));
        }
        IntervalSum sum;
        sum.add(cpu, res);
        sum.fill(m);
        if (analyzer)
            for (const stats::Scalar *s :
                 {&analyzer->fillsCompulsory, &analyzer->fillsCapacity,
                  &analyzer->fillsConflict, &analyzer->shadowHits})
                m.counters.emplace_back(s->name(), s->value());
    } catch (const FatalError &e) {
        m.ok = false;
        m.error = e.what();
    }
    return m;
}

Measurement
runBench(const wload::BenchProfile &profile, RenamerKind kind,
         unsigned physRegs, const RunOptions &opts)
{
    const isa::Program *prog =
        wload::cachedProgram(profile, usesWindowedBinary(kind));
    return runTiming({prog}, kind, physRegs, opts);
}

namespace {

/** Complete-program counts of one binary, from one functional run. */
struct PathInfo
{
    InstCount insts;
    InstCount memOps;
    InstCount calls;
};

PathInfo
pathInfo(const wload::BenchProfile &profile, bool windowed)
{
    static std::mutex mutex;
    static std::map<std::pair<std::string, bool>, PathInfo> cache;
    std::lock_guard<std::mutex> lock(mutex);
    const auto key = std::make_pair(profile.name, windowed);
    auto it = cache.find(key);
    if (it == cache.end()) {
        mem::SparseMemory memory;
        func::FuncSim sim(*wload::cachedProgram(profile, windowed),
                          memory);
        const auto stats = sim.run(2'000'000'000ULL);
        if (!sim.halted())
            fatal("benchmark '%s' did not run to completion",
                  profile.name.c_str());
        it = cache.emplace(key,
                           PathInfo{stats.insts,
                                    stats.loads + stats.stores,
                                    stats.calls}).first;
    }
    return it->second;
}

} // namespace

InstCount
pathLength(const wload::BenchProfile &profile, bool windowed)
{
    return pathInfo(profile, windowed).insts;
}

InstCount
memOpCount(const wload::BenchProfile &profile, bool windowed)
{
    return pathInfo(profile, windowed).memOps;
}

InstCount
callCount(const wload::BenchProfile &profile, bool windowed)
{
    return pathInfo(profile, windowed).calls;
}

double
executionTime(const wload::BenchProfile &profile, RenamerKind kind,
              const Measurement &m)
{
    return m.cpi * static_cast<double>(
        pathLength(profile, usesWindowedBinary(kind)));
}

double
totalDcacheAccesses(const wload::BenchProfile &profile, RenamerKind kind,
                    const Measurement &m)
{
    return m.dcacheAccPerInst * static_cast<double>(
        pathLength(profile, usesWindowedBinary(kind)));
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    return std::accumulate(xs.begin(), xs.end(), 0.0) /
           static_cast<double>(xs.size());
}

} // namespace vca::analysis
