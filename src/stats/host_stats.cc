#include "stats/host_stats.hh"

namespace vca::stats {

HostStats::HostStats(StatGroup *parent)
    : StatGroup("host", parent),
      simSeconds(this, "sim_seconds",
                 "wall-clock seconds spent in detailed simulation"),
      simInsts(this, "sim_insts",
               "instructions committed by detailed simulation"),
      simCycles(this, "sim_cycles", "cycles simulated in detail"),
      simCyclesSkipped(this, "sim_cycles_skipped",
                       "of sim_cycles, quiescent cycles skipped "
                       "instead of ticked"),
      simRuns(this, "sim_runs", "detailed simulations contributing"),
      simMips(this, "sim_mips",
              "simulated million instructions per host second",
              [this] {
                  const double s = simSeconds.value();
                  return s > 0 ? simInsts.value() / s / 1e6 : 0.0;
              }),
      cyclesPerSec(this, "sim_cycles_per_sec",
                   "simulated cycles per host second",
                   [this] {
                       const double s = simSeconds.value();
                       return s > 0 ? simCycles.value() / s : 0.0;
                   }),
      funcSeconds(this, "func_seconds",
                  "wall-clock seconds spent in functional simulation"),
      funcInsts(this, "func_insts",
                "instructions executed by the functional core"),
      funcRuns(this, "func_runs", "functional intervals contributing"),
      funcMips(this, "func_mips",
               "functional million instructions per host second",
               [this] {
                   const double s = funcSeconds.value();
                   return s > 0 ? funcInsts.value() / s / 1e6 : 0.0;
               })
{
}

void
HostStats::record(double seconds, double insts, double cycles,
                  double skippedCycles)
{
    std::lock_guard<std::mutex> lock(mutex_);
    simSeconds += seconds;
    simInsts += insts;
    simCycles += cycles;
    simCyclesSkipped += skippedCycles;
    ++simRuns;
}

void
HostStats::recordFunctional(double seconds, double insts)
{
    std::lock_guard<std::mutex> lock(mutex_);
    funcSeconds += seconds;
    funcInsts += insts;
    ++funcRuns;
}

HostStats &
HostStats::global()
{
    static HostStats stats;
    return stats;
}

} // namespace vca::stats
