/**
 * @file
 * Telemetry probe interface for the VCA register cache.
 *
 * The renamer treats the physical register file as a cache of the
 * memory-mapped logical-register space; a probe observes that cache's
 * access stream (hits, fills, spills) plus a once-per-rename-cycle
 * tick, without the renamer knowing anything about what the observer
 * does with it (shadow miss-classification models, occupancy
 * sampling, burst histograms live in src/telemetry/).
 *
 * Cost discipline: every call site in the renamer is guarded by the
 * VCA_TELEMETRY_PROBE macro, a single null-pointer test on a cold
 * path: cheap enough that the hooks are always compiled in (DESIGN
 * §4.1). The cycle taxonomy is not telemetry and is always
 * maintained.
 */

#ifndef VCA_CORE_REG_CACHE_PROBE_HH
#define VCA_CORE_REG_CACHE_PROBE_HH

#include "sim/types.hh"

namespace vca::core {

class RegCacheProbe
{
  public:
    virtual ~RegCacheProbe() = default;

    /** A logical-register access that found its value resident
     *  (source hit, or a destination allocation). */
    virtual void onAccess(Addr addr) = 0;

    /** A source miss that committed to a fill through the ASTQ.
     *  Called exactly once per `fills` increment, before the access
     *  itself is folded into any shadow model. */
    virtual void onFill(Addr addr) = 0;

    /** A dirty committed register written back (spill enqueued). */
    virtual void onSpill(Addr addr) = 0;

    /** Start of a rename cycle (drives time-series sampling). */
    virtual void onCycle(Cycle now) = 0;
};

} // namespace vca::core

#define VCA_TELEMETRY_PROBE(probe, call)                                \
    do {                                                                \
        if (probe)                                                      \
            (probe)->call;                                              \
    } while (0)

#endif // VCA_CORE_REG_CACHE_PROBE_HH
