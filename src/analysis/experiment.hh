/**
 * @file
 * Experiment harness shared by the benches, examples and tests.
 *
 * Implements the paper's measurement methodology (Section 3):
 *  - detailed simulation of a warm-up interval followed by a measured
 *    interval (scaled-down SimPoint stand-in; the synthetic programs
 *    are stationary by construction);
 *  - complete-program dynamic path lengths from functional simulation
 *    (Section 3.1), cached per benchmark and ABI;
 *  - execution-time estimates as CPI x dynamic path length, so that
 *    windowed and non-windowed binaries are comparable even though
 *    their instruction counts differ;
 *  - weighted speedup / weighted cache accesses for SMT (Section 3.2).
 */

#ifndef VCA_ANALYSIS_EXPERIMENT_HH
#define VCA_ANALYSIS_EXPERIMENT_HH

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cpu/ooo_cpu.hh"
#include "wload/generator.hh"
#include "wload/profile.hh"

namespace vca::telemetry {
class ChromeTraceWriter;
}

namespace vca::analysis {

/**
 * Optional deviations from the CpuParams::preset() configuration, for
 * the ablation studies. Zero / -1 means "keep the preset value", so a
 * default-constructed instance changes nothing. Kept as a flat POD so
 * sweep points hash and serialize trivially.
 */
struct ParamOverrides
{
    unsigned vcaTableAssoc = 0;
    unsigned astqEntries = 0;
    unsigned rsidEntries = 0;
    unsigned vcaRenamePorts = 0;
    int vcaCheckpointRecovery = -1; ///< -1 preset, else 0/1
    int vcaDeadValueHints = -1;     ///< -1 preset, else 0/1

    bool
    operator==(const ParamOverrides &o) const
    {
        return vcaTableAssoc == o.vcaTableAssoc &&
               astqEntries == o.astqEntries &&
               rsidEntries == o.rsidEntries &&
               vcaRenamePorts == o.vcaRenamePorts &&
               vcaCheckpointRecovery == o.vcaCheckpointRecovery &&
               vcaDeadValueHints == o.vcaDeadValueHints;
    }
};

/**
 * How the simulated numbers are produced. Detailed runs everything
 * through the OoO core (the default; all paper figures). SimPoint and
 * Sampled fast-forward functionally (FuncSim::run) and only run
 * the OoO core over representative regions, trading a bounded IPC
 * error (the accuracy test tier's ε contract) for host speed.
 */
enum class SimMode : std::uint8_t
{
    Detailed = 0,
    SimPoint = 1, ///< one BBV-clustered representative region
    Sampled = 2,  ///< SMARTS-style periodic sampling
};

/** Stable name used by CLI parsing, cache keys and JSON exports. */
const char *simModeName(SimMode mode);

/** Parse a mode name; returns false on unknown input. */
bool parseSimMode(const std::string &text, SimMode &mode);

struct RunOptions
{
    InstCount warmupInsts = 20'000;
    InstCount measureInsts = 200'000;
    unsigned dcachePorts = 2;
    unsigned numThreads = 1;
    /** Stop the measured interval when the first thread reaches the
     *  budget (the paper's SMT methodology). */
    bool stopOnFirstThread = false;
    /** Ablation deviations from the preset configuration. */
    ParamOverrides overrides;
    /**
     * Seed for the core's tie-break RNG (0 = library default). The
     * sweep runner derives it from the point's content hash, so a
     * job's randomness can never depend on which pool thread runs it
     * or in what order — the guarantee behind bit-identical parallel
     * sweeps.
     */
    std::uint64_t seed = 0;
    /**
     * Attach the register-cache telemetry analyzer (src/telemetry/)
     * for the measured interval. The shadow models are pure observers
     * — simulated numbers are bit-identical either way — but such
     * runs skip host-MIPS accounting so observation never pollutes
     * the host-throughput numbers.
     */
    bool regTelemetry = false;
    /** Execution mode. SimPoint mode interprets warmupInsts as the
     *  detailed warm-up of each representative interval; sampled mode
     *  fast-forwards warmupInsts (functionally warmed, unmeasured)
     *  before the first sample period and uses
     *  sampleDetailWarmInsts of detailed warm-up per sample. */
    SimMode mode = SimMode::Detailed;
    /** Sampled mode: per-thread instructions between sample starts
     *  (functional fast-forward plus functional warming). */
    InstCount samplePeriodInsts = 50'000;
    /** Sampled mode: detailed instructions measured per sample. */
    InstCount sampleQuantumInsts = 2'000;
    /** Non-detailed modes: 0 (default) warms the branch predictor and
     *  caches on every fast-forwarded instruction (continuous
     *  functional warming, the SMARTS discipline); N > 0 warms only
     *  the last N instructions of each fast-forward and runs the rest
     *  through the cheaper FuncSim::run, trading accuracy for
     *  fast-forward speed. */
    InstCount sampleFuncWarmInsts = 0;
    /** Sampled mode: detailed (unmeasured) warm-up per sample. */
    InstCount sampleDetailWarmInsts = 1'000;
    /**
     * Optional sample-timeline observer for the non-detailed modes:
     * when set, sampling.cc emits fast-forward spans, per-sample
     * warm-up/measure quanta and transplant instants into this writer.
     * Pure observation — never part of the point's cache identity
     * (pointKey() serializes an explicit field list) and never shipped
     * to isolated workers.
     */
    telemetry::ChromeTraceWriter *traceWriter = nullptr;
};

/**
 * One detailed sample of a non-detailed run (one SMARTS quantum, or
 * one SimPoint phase representative), as recorded by
 * analysis/sampling.cc. The per-sample CPIs feed the confidence
 * interval in SamplingSummary; the transplant summary captures how
 * warm the transplanted microarchitectural state was at switch-in.
 */
struct SampleRecord
{
    /** Dynamic instructions fast-forwarded (all threads summed)
     *  before this sample's switch-in. */
    InstCount startInst = 0;
    Cycle warmCycles = 0;      ///< detailed warm-up cycles
    InstCount warmInsts = 0;   ///< detailed warm-up instructions
    Cycle cycles = 0;          ///< measured quantum cycles
    InstCount insts = 0;       ///< measured quantum instructions
    double cpi = 0;            ///< cycles / insts of this sample
    /** Fraction of cache lines (all levels) holding a valid tag at
     *  switch-in, after the warm-model transplant. */
    double tagValidFraction = 0;
    /** Fraction of branch-predictor counters trained away from their
     *  reset value at switch-in. */
    double bpredTableOccupancy = 0;
    /** SimPoint phase id (-1 for SMARTS samples). */
    int phase = -1;
    /** Blend weight (SimPoint phase weight; 1 for SMARTS samples). */
    double weight = 1.0;

    bool
    operator==(const SampleRecord &o) const
    {
        return startInst == o.startInst && warmCycles == o.warmCycles &&
               warmInsts == o.warmInsts && cycles == o.cycles &&
               insts == o.insts && cpi == o.cpi &&
               tagValidFraction == o.tagValidFraction &&
               bpredTableOccupancy == o.bpredTableOccupancy &&
               phase == o.phase && weight == o.weight;
    }
};

/**
 * Per-run sampling statistics: weighted mean/variance of the
 * per-sample CPIs and a t-distribution 95% confidence interval (see
 * analysis/sampling.hh for the estimator and DESIGN.md 5.1 for its
 * independence assumptions). samples == 0 means "not a sampled run" —
 * the whole block is then absent from every serialization.
 */
struct SamplingSummary
{
    unsigned samples = 0;
    double meanCpi = 0;
    double cpiVariance = 0;   ///< unbiased (reliability-weighted)
    double ciLoCpi = 0;       ///< 95% CI lower bound (CPI)
    double ciHiCpi = 0;       ///< 95% CI upper bound (CPI)
    /** True when the CI is unbounded (a single sample: no variance
     *  estimate exists). ciLo/ciHi then degenerate to the mean. */
    bool ciUnbounded = false;
    double meanTagValidFraction = 0;
    double meanBpredTableOccupancy = 0;

    /** 95% CI on IPC (the reciprocal interval; hi bound from ciLo).
     *  A CPI lower bound of 0 leaves IPC unbounded above: ipcCiHi()
     *  is then +infinity (JSON writes it as null). */
    double ipcCiLo() const { return ciHiCpi > 0 ? 1.0 / ciHiCpi : 0; }
    double
    ipcCiHi() const
    {
        return ciLoCpi > 0 ? 1.0 / ciLoCpi
                           : std::numeric_limits<double>::infinity();
    }

    bool
    operator==(const SamplingSummary &o) const
    {
        return samples == o.samples && meanCpi == o.meanCpi &&
               cpiVariance == o.cpiVariance && ciLoCpi == o.ciLoCpi &&
               ciHiCpi == o.ciHiCpi && ciUnbounded == o.ciUnbounded &&
               meanTagValidFraction == o.meanTagValidFraction &&
               meanBpredTableOccupancy == o.meanBpredTableOccupancy;
    }
};

struct Measurement
{
    bool ok = false;     ///< false: configuration cannot operate
    /**
     * True when the failure is an infrastructure fault (worker crash,
     * deadline, escaped exception) rather than a property of the
     * simulated configuration. Infra failures are never cached — the
     * same point may well succeed on a retry or the next run — while
     * !ok && !infra ("No Baseline") is a legitimate, cacheable result.
     */
    bool infra = false;
    std::string error;   ///< reason when !ok ("No Baseline" cases)
    Cycle cycles = 0;
    InstCount insts = 0;
    double ipc = 0;
    double cpi = 0;
    double dcacheAccesses = 0;       ///< during the measured interval
    double dcacheAccPerInst = 0;
    std::vector<double> threadCpi;   ///< per-thread CPI
    std::vector<double> threadDcachePerInst; ///< aggregate rate copy
    std::vector<InstCount> threadInsts;
    /** Machine-level cycle-taxonomy leaf counts of the measured
     *  interval: (TaxonomyBuckets::leafName, cycles), in leaf order —
     *  a partition of `cycles`. The sweep cache stores these. */
    std::vector<std::pair<std::string, double>> taxonomy;
    /** Commit-stall attribution: (bucket name, fraction of cycles),
     *  always deriveCycleBreakdown(taxonomy, cycles). Fractions sum
     *  to 1. */
    std::vector<std::pair<std::string, double>> cycleBreakdown;
    /** Named raw counters the benches drill into (e.g. the VCA
     *  rename-stall scalars). Only counters that exist on the
     *  configuration appear. */
    std::vector<std::pair<std::string, double>> counters;
    /**
     * Sampling statistics of a non-detailed run (sampling.samples == 0
     * and sampleRecords empty on detailed runs). Serialized only when
     * present, so detailed cache entries and their checksums are
     * byte-identical with and without this layer.
     */
    SamplingSummary sampling;
    std::vector<SampleRecord> sampleRecords;

    bool
    operator==(const Measurement &o) const
    {
        return ok == o.ok && infra == o.infra && error == o.error &&
               cycles == o.cycles &&
               insts == o.insts && ipc == o.ipc && cpi == o.cpi &&
               dcacheAccesses == o.dcacheAccesses &&
               dcacheAccPerInst == o.dcacheAccPerInst &&
               threadCpi == o.threadCpi &&
               threadDcachePerInst == o.threadDcachePerInst &&
               threadInsts == o.threadInsts &&
               taxonomy == o.taxonomy &&
               cycleBreakdown == o.cycleBreakdown &&
               counters == o.counters && sampling == o.sampling &&
               sampleRecords == o.sampleRecords;
    }
};

/** A core's machine-level taxonomy leaf counts, in leaf order. */
std::vector<std::pair<std::string, double>>
taxonomyLeaves(const cpu::OooCpu &cpu);

/**
 * The six flat cycle-breakdown fractions (CycleAccounting bucket
 * order and names) of `cycles`, each the sum of its taxonomy leaves.
 * Empty for an empty leaf set; throws FatalError on a name that is
 * not a taxonomy leaf.
 */
std::vector<std::pair<std::string, double>>
deriveCycleBreakdown(
    const std::vector<std::pair<std::string, double>> &taxonomy,
    Cycle cycles);

/** Run a timing measurement for an arbitrary program/thread set. */
Measurement runTiming(const std::vector<const isa::Program *> &programs,
                      cpu::RenamerKind kind, unsigned physRegs,
                      const RunOptions &opts);

/** Convenience wrapper: one benchmark on one architecture. The binary
 *  ABI is implied by the architecture (baseline runs the non-windowed
 *  binary; the windowed machines run the windowed one). */
Measurement runBench(const wload::BenchProfile &profile,
                     cpu::RenamerKind kind, unsigned physRegs,
                     const RunOptions &opts);

/** Which binary ABI an architecture executes. */
bool usesWindowedBinary(cpu::RenamerKind kind);

/** Complete-program dynamic instruction count (cached). */
InstCount pathLength(const wload::BenchProfile &profile, bool windowed);

/** Complete-program load+store count (cached with pathLength). */
InstCount memOpCount(const wload::BenchProfile &profile, bool windowed);

/** Complete-program call count (cached with pathLength). */
InstCount callCount(const wload::BenchProfile &profile, bool windowed);

/**
 * Execution-time estimate for a measured benchmark: CPI x the
 * complete-program path length of the binary it ran.
 */
double executionTime(const wload::BenchProfile &profile,
                     cpu::RenamerKind kind, const Measurement &m);

/**
 * Total data-cache accesses estimate: accesses-per-committed-
 * instruction x complete-program path length.
 */
double totalDcacheAccesses(const wload::BenchProfile &profile,
                           cpu::RenamerKind kind, const Measurement &m);

/** Arithmetic mean (figures average across benchmarks). */
double mean(const std::vector<double> &xs);

/**
 * Process-wide count of runTiming() invocations (thread-safe). The
 * cache tests use it to prove that a warm-cache sweep performs zero
 * detailed simulations.
 */
std::uint64_t runTimingCallCount();

} // namespace vca::analysis

#endif // VCA_ANALYSIS_EXPERIMENT_HH
