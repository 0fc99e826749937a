/**
 * @file
 * Unit tests for the sampling confidence-interval estimator
 * (src/analysis/sampling.hh): the weighted mean/variance, the
 * effective (Kish) sample count, the t critical values, and
 * computeSamplingSummary() including the degenerate cases the stats
 * contract documents (n=1 flags an unbounded CI; identical samples
 * collapse to a zero-width CI).
 */

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/sampling.hh"

namespace {

using namespace vca;
using analysis::SampleRecord;
using analysis::SamplingSummary;

SampleRecord
rec(double cpi, double weight = 1.0, int phase = -1)
{
    SampleRecord r;
    r.startInst = 10'000;
    r.cycles = static_cast<Cycle>(cpi * 1000);
    r.insts = 1000;
    r.cpi = cpi;
    r.tagValidFraction = 0.5;
    r.bpredTableOccupancy = 0.25;
    r.phase = phase;
    r.weight = weight;
    return r;
}

TEST(SamplingMath, WeightedMeanEqualWeights)
{
    const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    const std::vector<double> w = {1.0, 1.0, 1.0, 1.0};
    EXPECT_DOUBLE_EQ(analysis::weightedMean(xs, w), 2.5);
}

TEST(SamplingMath, WeightedMeanRespectsWeights)
{
    const std::vector<double> xs = {1.0, 3.0};
    const std::vector<double> w = {3.0, 1.0};
    EXPECT_DOUBLE_EQ(analysis::weightedMean(xs, w), 1.5);
}

TEST(SamplingMath, WeightedVarianceEqualWeightsMatchesBessel)
{
    // With equal weights the reliability-weighted estimator reduces to
    // the classic unbiased sample variance (n-1 denominator).
    const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    const std::vector<double> w = {1.0, 1.0, 1.0, 1.0};
    double mean = 2.5, ss = 0;
    for (double x : xs)
        ss += (x - mean) * (x - mean);
    EXPECT_NEAR(analysis::weightedVariance(xs, w), ss / 3.0, 1e-12);
}

TEST(SamplingMath, WeightedVarianceScaleInvariantWeights)
{
    // Reliability weights are defined up to a scale factor.
    const std::vector<double> xs = {1.0, 2.0, 5.0};
    const std::vector<double> w1 = {0.2, 0.5, 0.3};
    std::vector<double> w2;
    for (double w : w1)
        w2.push_back(1000 * w);
    EXPECT_NEAR(analysis::weightedVariance(xs, w1),
                analysis::weightedVariance(xs, w2), 1e-9);
}

TEST(SamplingMath, WeightedVarianceDegenerate)
{
    EXPECT_DOUBLE_EQ(analysis::weightedVariance({1.0}, {1.0}), 0.0);
    EXPECT_DOUBLE_EQ(
        analysis::weightedVariance({2.0, 2.0, 2.0}, {1.0, 1.0, 1.0}),
        0.0);
}

TEST(SamplingMath, EffectiveSampleCount)
{
    // Equal weights: n_eff == n. Concentrated weight: n_eff -> 1.
    EXPECT_NEAR(analysis::effectiveSampleCount({1, 1, 1, 1}), 4.0,
                1e-12);
    EXPECT_NEAR(analysis::effectiveSampleCount({100, 1e-6, 1e-6}), 1.0,
                1e-3);
    const double mixed =
        analysis::effectiveSampleCount({0.5, 0.3, 0.2});
    EXPECT_GT(mixed, 1.0);
    EXPECT_LT(mixed, 3.0);
}

TEST(SamplingMath, TCriticalValues)
{
    // Spot values from the standard t table (two-sided, 95%).
    EXPECT_NEAR(analysis::tCritical95(1), 12.706, 1e-3);
    EXPECT_NEAR(analysis::tCritical95(10), 2.228, 1e-3);
    EXPECT_NEAR(analysis::tCritical95(30), 2.042, 1e-3);
    // Beyond the table the tail approximation must stay monotone
    // decreasing toward the normal quantile 1.96.
    const double t60 = analysis::tCritical95(60);
    const double t1000 = analysis::tCritical95(1000);
    EXPECT_GT(analysis::tCritical95(31), t60);
    EXPECT_GT(t60, t1000);
    EXPECT_NEAR(t1000, 1.96, 5e-3);
    // Fractional dof floor conservatively (wider interval).
    EXPECT_GE(analysis::tCritical95(2.7), analysis::tCritical95(3));
}

TEST(SamplingSummaryTest, SingleSampleFlagsUnboundedCi)
{
    const SamplingSummary s =
        analysis::computeSamplingSummary({rec(1.25)});
    EXPECT_EQ(s.samples, 1u);
    EXPECT_TRUE(s.ciUnbounded);
    EXPECT_DOUBLE_EQ(s.meanCpi, 1.25);
    EXPECT_DOUBLE_EQ(s.cpiVariance, 0.0);
    // The bounds collapse to the mean (JSON carries no infinities);
    // the flag is the signal that the interval is unusable.
    EXPECT_DOUBLE_EQ(s.ciLoCpi, 1.25);
    EXPECT_DOUBLE_EQ(s.ciHiCpi, 1.25);
}

TEST(SamplingSummaryTest, IdenticalSamplesZeroWidthCi)
{
    const SamplingSummary s = analysis::computeSamplingSummary(
        {rec(0.8), rec(0.8), rec(0.8), rec(0.8)});
    EXPECT_EQ(s.samples, 4u);
    EXPECT_FALSE(s.ciUnbounded);
    EXPECT_DOUBLE_EQ(s.meanCpi, 0.8);
    EXPECT_DOUBLE_EQ(s.cpiVariance, 0.0);
    EXPECT_DOUBLE_EQ(s.ciLoCpi, 0.8);
    EXPECT_DOUBLE_EQ(s.ciHiCpi, 0.8);
}

TEST(SamplingSummaryTest, TwoSampleIntervalMatchesHandComputation)
{
    // n=2, x = {1.0, 1.2}: mean 1.1, s^2 = 0.02, half-width
    // t(1) * sqrt(s^2 / 2) = 12.706 * 0.1.
    const SamplingSummary s =
        analysis::computeSamplingSummary({rec(1.0), rec(1.2)});
    EXPECT_FALSE(s.ciUnbounded);
    EXPECT_NEAR(s.meanCpi, 1.1, 1e-12);
    EXPECT_NEAR(s.cpiVariance, 0.02, 1e-12);
    const double hw = 12.706 * std::sqrt(0.02 / 2.0);
    EXPECT_NEAR(s.ciHiCpi - s.meanCpi, hw, 1e-3);
    // The analytic lower bound 1.1 - 1.27 is negative; CPI clamps
    // at zero rather than reporting an impossible bound.
    EXPECT_DOUBLE_EQ(s.ciLoCpi, 0.0);
}

TEST(SamplingSummaryTest, CiLowerBoundClampedToZero)
{
    // A huge spread around a small mean would put the analytic lower
    // bound below zero; CPI is nonnegative, so it clamps.
    const SamplingSummary s =
        analysis::computeSamplingSummary({rec(0.01), rec(2.0)});
    EXPECT_GE(s.ciLoCpi, 0.0);
    EXPECT_LE(s.ciLoCpi, s.meanCpi);
    EXPECT_GE(s.ciHiCpi, s.meanCpi);
}

TEST(SamplingSummaryTest, WeightedMeanMatchesSimPointHeadline)
{
    // SimPoint phases carry weights; the summary mean must be the
    // weight-combined CPI the headline number reports.
    const SamplingSummary s = analysis::computeSamplingSummary(
        {rec(1.0, 0.6, 0), rec(2.0, 0.3, 1), rec(4.0, 0.1, 2)});
    EXPECT_EQ(s.samples, 3u);
    EXPECT_NEAR(s.meanCpi, 0.6 * 1.0 + 0.3 * 2.0 + 0.1 * 4.0, 1e-12);
    EXPECT_FALSE(s.ciUnbounded);
    EXPECT_LT(s.ciLoCpi, s.meanCpi);
    EXPECT_GT(s.ciHiCpi, s.meanCpi);
}

TEST(SamplingSummaryTest, WarmthMetricsAverage)
{
    std::vector<SampleRecord> rs = {rec(1.0), rec(1.0)};
    rs[0].tagValidFraction = 0.2;
    rs[1].tagValidFraction = 0.6;
    rs[0].bpredTableOccupancy = 0.1;
    rs[1].bpredTableOccupancy = 0.5;
    const SamplingSummary s = analysis::computeSamplingSummary(rs);
    EXPECT_NEAR(s.meanTagValidFraction, 0.4, 1e-12);
    EXPECT_NEAR(s.meanBpredTableOccupancy, 0.3, 1e-12);
}

TEST(SamplingSummaryTest, EmptyRecordSet)
{
    const SamplingSummary s = analysis::computeSamplingSummary({});
    EXPECT_EQ(s.samples, 0u);
    EXPECT_FALSE(s.ciUnbounded);
    EXPECT_DOUBLE_EQ(s.meanCpi, 0.0);
}

TEST(SamplingSummaryTest, IpcAccessorsAreReciprocals)
{
    const SamplingSummary s =
        analysis::computeSamplingSummary({rec(1.0), rec(1.2)});
    EXPECT_NEAR(s.ipcCiLo(), 1.0 / s.ciHiCpi, 1e-12);
    EXPECT_EQ(s.ipcCiHi(), s.ciLoCpi > 0
                               ? 1.0 / s.ciLoCpi
                               : std::numeric_limits<double>::infinity());
    EXPECT_LE(s.ipcCiLo(), 1.0 / s.meanCpi);
}

TEST(SamplingSummaryTest, ClampedCpiBoundLeavesIpcUnboundedAbove)
{
    // n=2, x = {0.5, 3.0}: mean 1.75, half-width 12.706 * 1.25 far
    // above the mean, so the CPI lower bound clamps to 0. IPC then has
    // no upper bound, and must not read 0 (below its lower bound).
    const SamplingSummary s =
        analysis::computeSamplingSummary({rec(0.5), rec(3.0)});
    EXPECT_FALSE(s.ciUnbounded);
    EXPECT_DOUBLE_EQ(s.meanCpi, 1.75);
    EXPECT_NEAR(s.cpiVariance, 3.125, 1e-12);
    EXPECT_DOUBLE_EQ(s.ciLoCpi, 0.0);
    EXPECT_NEAR(s.ciHiCpi, 1.75 + 12.706 * 1.25, 1e-3);
    EXPECT_EQ(s.ipcCiHi(), std::numeric_limits<double>::infinity());
    EXPECT_NEAR(s.ipcCiLo(), 1.0 / s.ciHiCpi, 1e-12);
    EXPECT_LT(s.ipcCiLo(), 1.0 / s.meanCpi);
}

TEST(SamplingSummaryTest, CiIsPureFunctionOfRecords)
{
    // The property the cross-worker determinism tests rely on: the
    // summary depends only on the record list, not on evaluation
    // order or repetition.
    const std::vector<SampleRecord> rs = {rec(0.9), rec(1.1),
                                          rec(1.05), rec(0.95)};
    const SamplingSummary a = analysis::computeSamplingSummary(rs);
    const SamplingSummary b = analysis::computeSamplingSummary(rs);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.ciLoCpi, b.ciLoCpi);
    EXPECT_EQ(a.ciHiCpi, b.ciHiCpi);
}

} // namespace
