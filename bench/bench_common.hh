/**
 * @file
 * Shared plumbing for the table/figure reproduction benches.
 *
 * Every bench prints the rows/series of one table or figure from the
 * paper's evaluation. Interval lengths are scaled down from the
 * paper's 100M-instruction SimPoints to laptop budgets; set
 * VCA_MEASURE_INSTS / VCA_WARMUP_INSTS (and for the SMT benches
 * VCA_WORKLOADS_2T / VCA_WORKLOADS_4T) to scale up.
 */

#ifndef VCA_BENCH_COMMON_HH
#define VCA_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analysis/experiment.hh"
#include "analysis/runner.hh"
#include "analysis/workloads.hh"
#include "sim/logging.hh"
#include "sim/options.hh"

namespace vca::bench {

/** An unsigned-integer environment knob: fallback when unset or
 *  empty, and (with a warning) when it does not parse. */
inline std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    if (const auto n = parseU64(v))
        return *n;
    warn("ignoring %s='%s' (want an unsigned integer)", name, v);
    return fallback;
}

inline analysis::RunOptions
defaultOptions()
{
    analysis::RunOptions opts;
    opts.warmupInsts = envU64("VCA_WARMUP_INSTS", 15'000);
    opts.measureInsts = envU64("VCA_MEASURE_INSTS", 150'000);
    // Execution mode for every measured point (the accuracy gate runs
    // benches under VCA_SIM_MODE=sampled and compares against the
    // detailed trajectory).
    if (const char *m = std::getenv("VCA_SIM_MODE"); m && *m) {
        if (!analysis::parseSimMode(m, opts.mode))
            fatal("unknown VCA_SIM_MODE '%s' "
                  "(detailed|simpoint|sampled)", m);
    }
    opts.samplePeriodInsts =
        envU64("VCA_SAMPLE_PERIOD", opts.samplePeriodInsts);
    opts.sampleQuantumInsts =
        envU64("VCA_SAMPLE_QUANTUM", opts.sampleQuantumInsts);
    opts.sampleFuncWarmInsts =
        envU64("VCA_SAMPLE_FUNC_WARM", opts.sampleFuncWarmInsts);
    opts.sampleDetailWarmInsts =
        envU64("VCA_SAMPLE_DETAIL_WARM", opts.sampleDetailWarmInsts);
    return opts;
}

/** The four register-window architectures of Figures 4-6. */
inline const std::vector<cpu::RenamerKind> &
regWindowArchs()
{
    static const std::vector<cpu::RenamerKind> archs = {
        cpu::RenamerKind::Baseline,
        cpu::RenamerKind::IdealWindow,
        cpu::RenamerKind::ConvWindow,
        cpu::RenamerKind::Vca,
    };
    return archs;
}

inline const char *
archLabel(cpu::RenamerKind kind)
{
    switch (kind) {
      case cpu::RenamerKind::Baseline:    return "baseline";
      case cpu::RenamerKind::IdealWindow: return "ideal";
      case cpu::RenamerKind::ConvWindow:  return "regwindow";
      case cpu::RenamerKind::Vca:         return "vca";
    }
    return "?";
}

/** The sampling record of one measured (curve, workload, size) point
 *  of a non-detailed sweep. */
struct SampledPoint
{
    std::string label;    ///< curve (SeriesSpec) label
    std::string workload; ///< "+"-joined benchmark names
    unsigned physRegs = 0;
    double ipc = 0; ///< sampled point estimate (1 / mean CPI)
    analysis::SamplingSummary summary;
};

/** Everything one figure sweep measured; printSeries() reads it. */
struct FigureSeries
{
    analysis::SimMode mode = analysis::SimMode::Detailed;
    /** values[curve label][size index]; negative = cannot operate. */
    std::map<std::string, std::vector<double>> values;
    /** One record per sampled point, in sweep order; empty on
     *  detailed runs. */
    std::vector<SampledPoint> sampling;
};

/**
 * Print one figure's series table (one row per curve, one column per
 * register-file size; "n/a" where the configuration cannot operate).
 * On sampled runs an `IPC ± CI` table follows: one cell per (curve,
 * size) averaging the per-workload sampled IPC and 95% half-width,
 * "±inf" where an interval has no upper IPC bound. Detailed runs print
 * no CI table, so their stdout stays byte-identical.
 *
 * With $VCA_FIGURE_DIR set, also write the figure document
 * <slug>.json there; the slug is the title up to its colon, lower-case,
 * spaces as underscores ("figure_6"). The document's fields are always
 * `bench`, `mode`, `phys_regs`, `series` (null for an n/a cell),
 * `sampling` (the per-point records, empty on detailed runs) and
 * `failures` (infrastructure failures, empty on a clean run).
 * scripts/plot_figures.py plots it.
 */
void printSeries(const char *title, const char *valueName,
                 const std::vector<unsigned> &physRegs,
                 const FigureSeries &series);

/**
 * Bench epilogue: the value every bench main() returns. Reports sweep
 * points lost to infrastructure failures (worker crashes, deadlines)
 * after their retry budget — the affected cells already printed as
 * "n/a" — with a stderr summary, and turns them into a nonzero exit
 * code so CI and scripts notice a degraded run. Returns 0 when every
 * point completed.
 */
int finishBench();

/**
 * Print the cycle-accounting breakdown (commit-stall attribution) of
 * one representative run per architecture, so every bench shows where
 * the cycles of its configurations actually go.
 */
void printCycleAccounting(const std::vector<cpu::RenamerKind> &archs,
                          unsigned physRegs,
                          const analysis::RunOptions &opts,
                          const std::string &benchName = "crafty");

/**
 * The shared sweep loop behind every figure: one curve (a SeriesSpec)
 * is an architecture/ABI and its workload list, and the series value
 * at each register-file size is the mean of a per-workload metric.
 * All (spec x size x workload) measurements run as ONE batch on the
 * parallel sweep runner (analysis::SweepRunner::global(), memoized on
 * disk); only metric evaluation and formatting stay serial.
 */
struct SeriesSpec
{
    std::string label;            ///< row name in the printed series
    cpu::RenamerKind kind;
    bool windowed;                ///< which binary ABI the points run
    bool stopOnFirstThread;       ///< SMT methodology (Section 3.2)
    std::vector<std::vector<std::string>> workloads; ///< 1 entry/thread
};

/** Per-workload metric; negative marks the point inoperable. */
using WorkloadMetric = std::function<double(
    const SeriesSpec &spec, const std::vector<std::string> &benches,
    const analysis::Measurement &m)>;

/**
 * Measure every (spec, size, workload) point in one parallel batch and
 * reduce to values[spec.label][sizeIndex]: the mean across the spec's
 * workloads, or -1 when any workload is inoperable (!Measurement::ok
 * or a negative metric). Sampled points also leave their records in
 * the result's `sampling`.
 */
FigureSeries
sweepSeries(const std::vector<SeriesSpec> &specs,
            const std::vector<unsigned> &physRegs,
            const analysis::RunOptions &opts,
            const WorkloadMetric &metric);

/**
 * Sweep the register-window architectures over physical register file
 * sizes. Returns values[arch][sizeIndex] where the metric is computed
 * per benchmark, normalized to the baseline reference, and averaged
 * over the call-heavy benchmark set. Negative = cannot operate.
 *
 * @param metricIsDcache false: execution time; true: cache accesses
 */
FigureSeries
regWindowSweep(const std::vector<unsigned> &physRegs,
               const analysis::RunOptions &opts, bool metricIsDcache,
               unsigned normalizePorts = 2);

// ---------------------------------------------------------------------
// SMT machinery (Figures 7 and 8)
// ---------------------------------------------------------------------

/** Workload selection with bench-scaled defaults (env-overridable). */
analysis::WorkloadSelection benchWorkloads();

/**
 * Single-threaded reference execution times: baseline at 256 physical
 * registers running the non-windowed binary (the paper's normalization
 * point for both SMT figures). Cached per process.
 */
const std::map<std::string, double> &singleThreadReference(
    const analysis::RunOptions &opts);

/** The sweep point one SMT workload measurement runs. */
analysis::SweepPoint smtPoint(const std::vector<std::string> &benches,
                              cpu::RenamerKind kind, unsigned physRegs,
                              bool windowedBinaries,
                              const analysis::RunOptions &baseOpts);

/**
 * Weighted speedup of one multiprogrammed workload: the sum over
 * threads of refExecTime / smtExecTime, where execution time is
 * CPI x complete-program path length of the binary each side ran.
 * Returns a negative value when the configuration cannot operate.
 */
double weightedSpeedup(const std::vector<std::string> &benches,
                       cpu::RenamerKind kind, unsigned physRegs,
                       bool windowedBinaries,
                       const analysis::RunOptions &baseOpts);

/** weightedSpeedup() from an already-run workload measurement. */
double weightedSpeedupFrom(const std::vector<std::string> &benches,
                           bool windowedBinaries,
                           const analysis::Measurement &m,
                           const analysis::RunOptions &baseOpts);

/**
 * Cache-traffic metric for one workload: measured data-cache accesses
 * per unit of completed architectural work (sum over threads of
 * committed insts / path length). Ratios of this metric between
 * configurations reproduce the Section 4.3 accounting.
 */
double cacheAccessMetric(const std::vector<std::string> &benches,
                         cpu::RenamerKind kind, unsigned physRegs,
                         bool windowedBinaries,
                         const analysis::RunOptions &baseOpts);

/** cacheAccessMetric() from an already-run workload measurement. */
double cacheAccessMetricFrom(const std::vector<std::string> &benches,
                             bool windowedBinaries,
                             const analysis::Measurement &m);

} // namespace vca::bench

#endif // VCA_BENCH_COMMON_HH
