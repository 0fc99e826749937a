/**
 * @file
 * Host-throughput statistics: how fast the simulator itself runs.
 *
 * Every figure and table is a sweep of detailed simulations, so
 * simulated MIPS on the host is the budget that bounds how many
 * (arch x regs x workload) points are affordable. This group tracks
 * the wall-clock spent inside detailed simulation and the simulated
 * instructions/cycles covered, and derives simulated MIPS and
 * cycles-per-second. runTiming() accumulates into a process-wide
 * instance (vca-sim's host: lines and perfbench read it); vca-sim keeps
 * a local instance for its single-run report.
 *
 * record() is thread-safe: sweep points run concurrently on the
 * worker pool and each contributes its own simulation interval. The
 * per-point wall times sum across workers, so sim_seconds counts
 * CPU-seconds of detailed simulation, not elapsed time — simulated
 * MIPS is therefore per-core and comparable across VCA_JOBS settings.
 */

#ifndef VCA_STATS_HOST_STATS_HH
#define VCA_STATS_HOST_STATS_HH

#include <mutex>

#include "stats/statistics.hh"

namespace vca::stats {

class HostStats : public StatGroup
{
  public:
    explicit HostStats(StatGroup *parent = nullptr);

    /** Accumulate one detailed-simulation interval (thread-safe);
     *  `skippedCycles` of its `cycles` were skipped, not ticked. */
    void record(double seconds, double insts, double cycles,
                double skippedCycles = 0);

    /** Accumulate one functional (fast-forward/warming) interval. */
    void recordFunctional(double seconds, double insts);

    stats::Scalar simSeconds; ///< wall-clock inside detailed simulation
    stats::Scalar simInsts;   ///< instructions committed in that time
    stats::Scalar simCycles;  ///< cycles simulated in that time
    stats::Scalar simCyclesSkipped; ///< of those, skipped while idle
    stats::Scalar simRuns;    ///< detailed simulations contributing
    stats::Formula simMips;   ///< simulated million insts / host second
    stats::Formula cyclesPerSec; ///< simulated cycles / host second

    // Functional-core throughput (fast-forward + warming in the
    // sampled/simpoint modes). Kept separate from the sim_* detailed
    // trajectory: the accuracy gate's >=5x speedup contract is
    // func_mips vs sim_mips.
    stats::Scalar funcSeconds; ///< wall-clock inside functional sim
    stats::Scalar funcInsts;   ///< instructions executed functionally
    stats::Scalar funcRuns;    ///< functional intervals contributing
    stats::Formula funcMips;   ///< functional million insts / host sec

    /** Process-wide accumulator shared by runTiming() callers. */
    static HostStats &global();

  private:
    std::mutex mutex_;
};

} // namespace vca::stats

#endif // VCA_STATS_HOST_STATS_HH
