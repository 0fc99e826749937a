/**
 * @file
 * Fast-forward + sampled simulation modes (the non-detailed arms of
 * RunOptions::mode).
 *
 * Both modes interleave the functional core (FuncSim) with the
 * detailed OoO core:
 *
 *  - SimPoint: cluster BBV intervals into phases (analysis/
 *    simpoint.hh), detail-simulate one representative interval per
 *    phase, and report the phase-weighted IPC blend as the
 *    whole-program estimate.
 *  - Sampled: SMARTS-style periodic sampling — every samplePeriodInsts
 *    per thread, switch the architectural state into the drained
 *    detailed core, run sampleDetailWarmInsts of detailed warm-up, and
 *    measure a sampleQuantumInsts quantum; aggregate quanta until
 *    measureInsts instructions have been measured or the program ends.
 *
 * Each run builds one detailed core, before the first fast-forward,
 * and both modes take every sample through one step (SampledRun::
 * sample): drain the core (OooCpu::drain) and switch in, so transient
 * state starts cold, then warm up, measure and resync. Long-lived
 * microarchitectural state (cache tags, predictor tables) lives in
 * that core's own caches and predictor for the whole run: every
 * fast-forwarded instruction warms them (continuous functional
 * warming; see
 * RunOptions::sampleFuncWarmInsts for the tail-only compromise) and
 * every sample continues from them — without it, every sample would
 * restart with cold caches and the sampled estimate would be biased
 * far below the detailed reference. The caches drop their in-flight
 * fills at each hand-off between the warm clock and the core's cycles.
 *
 * The hand-off obeys the switch-in invariant (OooCpu::switchIn): after
 * transfer, every architectural register the detailed core would read
 * is checked against the functional golden model. Host time spent on
 * the functional side is accounted to HostStats func_* (the accuracy
 * tier's >=5x speedup contract); detailed quanta accumulate into the
 * usual sim_* trajectory.
 */

#ifndef VCA_ANALYSIS_SAMPLING_HH
#define VCA_ANALYSIS_SAMPLING_HH

#include "analysis/experiment.hh"
#include "stats/statistics.hh"

namespace vca::analysis {

/**
 * Run a non-detailed timing measurement (opts.mode is SimPoint or
 * Sampled) on the core @p params describes. runTiming() builds
 * @p params with cpuParamsFor(), as for a detailed run, so ablation
 * overrides and seeding behave identically across modes.
 */
Measurement runSampledTiming(
    const std::vector<const isa::Program *> &programs,
    const RunOptions &opts, const cpu::CpuParams &params);

// ---------------------------------------------------------------------
// Confidence-interval estimator (pure functions, unit-tested without
// any simulation; DESIGN.md 5.1 documents the assumptions)
// ---------------------------------------------------------------------

/** Weighted mean of xs (weights w; equal weights = arithmetic mean).
 *  Returns 0 when the total weight is 0. */
double weightedMean(const std::vector<double> &xs,
                    const std::vector<double> &w);

/**
 * Unbiased weighted sample variance (reliability weights): for equal
 * weights this is the classic n-1 estimator. Returns 0 when fewer than
 * two effective samples exist.
 */
double weightedVariance(const std::vector<double> &xs,
                        const std::vector<double> &w);

/**
 * Kish effective sample size (sum w)^2 / sum w^2 — equals n for equal
 * weights, shrinks when a few samples dominate the blend.
 */
double effectiveSampleCount(const std::vector<double> &w);

/**
 * Two-sided 95% critical value of Student's t distribution with @p dof
 * degrees of freedom (table for 1..30, the normal quantile 1.96
 * beyond). dof < 1 returns the dof=1 value (12.706).
 */
double tCritical95(double dof);

/**
 * Mean, variance and the 95% CLT/t confidence interval of per-sample
 * CPIs. Degenerate cases: a single sample yields ciUnbounded (no
 * variance estimate exists; the bounds collapse to the mean);
 * identical samples yield a zero-width interval. The warmth means are
 * filled from the records' transplant summaries.
 */
SamplingSummary computeSamplingSummary(
    const std::vector<SampleRecord> &records);

/**
 * "sampling" statistics group, dumped with --stats and exported as the
 * stats-JSON `sampling` block's scalar mirror. Populated from a
 * finished Measurement (the measurement itself stays the source of
 * truth for caching/serialization).
 */
class SamplingStats : public stats::StatGroup
{
  public:
    explicit SamplingStats(stats::StatGroup *parent = nullptr);

    /** Copy one measurement's sampling summary into the scalars. */
    void populate(const Measurement &m);

    stats::Scalar samples;
    stats::Scalar meanCpi;
    stats::Scalar cpiVariance;
    stats::Scalar ciLoCpi;
    stats::Scalar ciHiCpi;
    stats::Scalar ciUnbounded;
    stats::Scalar ipcCiLo;
    stats::Scalar ipcCiHi;
    stats::Scalar meanTagValidFraction;
    stats::Scalar meanBpredTableOccupancy;
};

} // namespace vca::analysis

#endif // VCA_ANALYSIS_SAMPLING_HH
