/**
 * @file
 * Differential run explainer: attribute the CPI gap between two runs
 * to the hierarchical cycle-taxonomy leaves (README, Observability).
 *
 * The taxonomy partitions cpu.cycles exactly, so per-leaf CPI
 * contributions (leaf cycles / committed instructions) also partition
 * CPI exactly, and the per-leaf deltas between two runs sum to the
 * CPI gap with no residual. Every input carries the same twelve
 * machine-level leaves, so a report attributes 100% of a gap by
 * construction.
 *
 * Inputs come from --stats-json documents (loadRunJson) or from
 * cached sweep Measurements (explainInputFromMeasurement), so
 * `vca-explain --spec ...` rides the same on-disk result cache as the
 * benches at the same leaf resolution. When both runs carry interval time series the explainer
 * also aligns them on the committed-instruction axis and reports the
 * windows where the cycle gap opens.
 */

#ifndef VCA_ANALYSIS_EXPLAIN_HH
#define VCA_ANALYSIS_EXPLAIN_HH

#include <string>
#include <vector>

#include "analysis/experiment.hh"

namespace vca::analysis {

/** One measurement interval, reduced to what alignment needs. */
struct ExplainInterval
{
    double committedCum = 0; ///< committed insts at interval end
    double cycles = 0;       ///< cycle span of this interval
    bool partial = false;    ///< final short interval (finish())
    /** Cycles per taxonomy leaf inside this interval, in the order of
     *  ExplainInput::intervalLeafNames. */
    std::vector<double> leafCycles;
};

/** One run, reduced to what attribution needs. */
struct ExplainInput
{
    std::string label;  ///< how the report names this run
    std::string config; ///< human-readable configuration summary
    double cycles = 0;
    double insts = 0;
    /** (taxonomy leaf name, cycles) — a partition of `cycles`; empty
     *  only for an inoperable Measurement. */
    std::vector<std::pair<std::string, double>> leaves;
    std::vector<std::string> intervalLeafNames;
    std::vector<ExplainInterval> intervals;

    double cpi() const { return insts > 0 ? cycles / insts : 0; }
};

/** One leaf's contribution to the CPI gap. */
struct Attribution
{
    std::string leaf;
    double cpiA = 0;  ///< leaf cycles / insts in run A
    double cpiB = 0;
    double delta = 0; ///< cpiB - cpiA (signed)
    double share = 0; ///< delta / gap, signed; 0 when gap is 0
};

/** A committed-instruction window where the cycle gap opens. */
struct IntervalHotspot
{
    double instLo = 0; ///< window start (committed instructions)
    double instHi = 0;
    double cpiA = 0;   ///< CPI inside the window, per run
    double cpiB = 0;
    double gapCycles = 0; ///< cycle gap contributed by this window
    double gapShare = 0;  ///< fraction of the total windowed gap
    std::string topLeaf;  ///< leaf with the largest delta here
};

struct ExplainReport
{
    std::string labelA, labelB;
    std::string configA, configB;
    double cyclesA = 0, cyclesB = 0;
    double instsA = 0, instsB = 0;
    double cpiA = 0, cpiB = 0;
    double gap = 0; ///< cpiB - cpiA
    /** sum of leaf deltas / gap. 1.0 (exactly, up to fp rounding) when
     *  both runs carry full partitions of their cycles. */
    double attributedFraction = 0;
    std::vector<Attribution> attributions; ///< ranked by |delta|
    std::vector<IntervalHotspot> hotspots; ///< ranked by gapCycles
};

/**
 * Parse a vca-sim --stats-json document: its summary, the
 * machine-level leaves of cpu.cycle_accounting.taxonomy and any
 * interval series. Throws sim::FatalError naming the file on
 * unreadable or malformed input, and on a document it cannot
 * attribute: no taxonomy (a sampled or SimPoint document has no cpu
 * tree) or leaves that do not sum to summary.cycles.
 */
ExplainInput loadRunJson(const std::string &path,
                         const std::string &label);

/** Build an input from a (cached) sweep Measurement's taxonomy
 *  leaves. */
ExplainInput explainInputFromMeasurement(const std::string &label,
                                         const std::string &config,
                                         const Measurement &m);

/** Attribute the CPI gap of B relative to A. Pure and deterministic. */
ExplainReport explain(const ExplainInput &a, const ExplainInput &b);

/** Render a report for the terminal (or as a markdown document). */
std::string renderReport(const ExplainReport &r, bool markdown);

/**
 * Self-test: plant a synthetic spill-stall gap between two otherwise
 * identical runs and check the explainer attributes it to the planted
 * leaf and localizes it in the planted interval window. Returns 0 on
 * success, 1 on failure (diagnostics on stderr).
 */
int explainSelftest();

// ---------------------------------------------------------------------
// Sampling error attribution (vca-explain --sampling)
// ---------------------------------------------------------------------

/** One sample's deviation from the matched detailed run. */
struct SampleDeviation
{
    int index = 0;       ///< sample index in measurement order
    SampleRecord rec;
    double cpiError = 0; ///< rec.cpi - detailed CPI (signed)
};

/** Per-SimPoint-phase aggregation of the sample deviations. */
struct PhaseDeviation
{
    int phase = -1;
    double weight = 0;    ///< phase weight (fraction of execution)
    unsigned samples = 0;
    double meanCpi = 0;
    double meanAbsError = 0; ///< mean |cpi - detailed CPI|
};

/**
 * Sampled-vs-detailed error attribution for one configuration: which
 * samples deviate from the detailed trajectory, whether the deviation
 * correlates with how warm the transplanted microarchitectural state
 * was at switch-in, and (for SimPoint runs) which phases carry the
 * error.
 */
struct SamplingReport
{
    std::string config;       ///< human-readable configuration
    SamplingSummary summary;  ///< the sampled run's CI summary
    double sampledIpc = 0;
    double detailedCpi = 0;
    double detailedIpc = 0;
    double ipcErrorPct = 0;   ///< (sampled - detailed)/detailed * 100
    bool detailedIpcInCi = false;
    int worstSample = -1;     ///< argmax |cpiError|; -1 when no samples
    /**
     * Pearson r of |cpiError| against the transplant warmth metrics
     * across samples; 0 when degenerate (fewer than two samples or a
     * zero-variance axis). Negative r means colder transplants (lower
     * warmth) deviate more — the expected signature of insufficient
     * warm-up.
     */
    double corrTagValid = 0;
    double corrBpredOcc = 0;
    std::vector<SampleDeviation> samples; ///< measurement order
    std::vector<PhaseDeviation> phases;   ///< SimPoint runs only
};

/**
 * Attribute the sampled run's IPC error against its matched detailed
 * run. Pure and deterministic; `sampled` must carry sample records
 * (non-detailed mode), `detailed` the matched detailed measurement.
 */
SamplingReport explainSampling(const std::string &config,
                               const Measurement &sampled,
                               const Measurement &detailed);

/** Render a sampling report for the terminal (or as markdown). */
std::string renderSamplingReport(const SamplingReport &r,
                                 bool markdown);

/**
 * Self-test for the sampling error attribution: synthesize a sampled
 * measurement whose deviations are planted to correlate with cold
 * transplants and check the report recovers the error, the worst
 * sample, the correlation sign and the per-phase rollup. Returns 0 on
 * success, 1 on failure (diagnostics on stderr).
 */
int samplingSelftest();

} // namespace vca::analysis

#endif // VCA_ANALYSIS_EXPLAIN_HH
