/**
 * @file
 * Deterministic fault-injection harness for the sweep execution layer.
 *
 * Chaos testing only proves anything if the chaos is reproducible: a
 * sweep that survives injected worker crashes must produce the same
 * bytes every time the same spec is injected, or a CI failure cannot
 * be replayed. Every injection decision here is therefore a pure
 * function of (spec seed, fault site, caller-supplied id, attempt
 * number) — never of wall-clock time, thread scheduling, or a shared
 * generator — so decisions are identical across runs, worker counts,
 * and forked child processes.
 *
 * Spec grammar (VCA_FAULT_INJECT):
 *
 *   seed=K,crash=P,hang=P,corrupt=P,writefail=P[,attempts=N]
 *
 *   crash      probability a forked sweep worker dies mid-point
 *              (isolate mode only; in-process workers cannot survive
 *              a real crash, so none is injected there)
 *   hang       probability a forked sweep worker stops making
 *              progress (the per-point deadline must reap it)
 *   corrupt    probability a successfully read cache entry has its
 *              bytes flipped before parsing
 *   writefail  probability a cache store behaves like ENOSPC
 *   attempts   crash/hang fire only on attempts < N (default 1), so
 *              a point with retries > N is guaranteed to converge and
 *              a chaos sweep terminates with byte-identical results
 *
 * Probabilities are in [0, 1]; omitted sites never fire. The global
 * instance parses VCA_FAULT_INJECT once on first use; tests override
 * it with installGlobal().
 */

#ifndef VCA_SIM_FAULT_INJECT_HH
#define VCA_SIM_FAULT_INJECT_HH

#include <cstdint>
#include <string>

namespace vca {

enum class FaultSite : unsigned {
    WorkerCrash = 0,  ///< forked worker exits abnormally mid-point
    WorkerHang,       ///< forked worker stops making progress
    CacheCorruptRead, ///< cache entry bytes flip on the read path
    CacheWriteFail,   ///< cache store behaves like a full/bad disk
};

inline constexpr unsigned kNumFaultSites = 4;

/** Short stable name ("crash", "hang", ...) for reports and specs. */
const char *faultSiteName(FaultSite site);

class FaultInjector
{
  public:
    /** Disabled injector: no site ever fires. */
    FaultInjector() = default;

    /** Parse a spec string; throws FatalError on malformed input. */
    static FaultInjector parse(const std::string &spec);

    bool enabled() const { return enabled_; }
    double probability(FaultSite site) const;
    unsigned maxAttempts() const { return maxAttempts_; }
    std::uint64_t seed() const { return seed_; }

    /**
     * Deterministic injection decision for one (site, id, attempt).
     * The id names the victim — sweep code passes the point's content
     * hash, so a decision is stable across runs, processes, and
     * worker schedules. Bumps the process-wide fired counter.
     */
    bool shouldFire(FaultSite site, std::uint64_t id,
                    unsigned attempt = 0) const;

    /** Process-wide count of fired injections per site. */
    static std::uint64_t firedCount(FaultSite site);
    static void resetFiredCounts();

    /** Shared instance, parsed from VCA_FAULT_INJECT on first use. */
    static const FaultInjector &global();

    /** Replace the global instance ("" disables); for tests/tools. */
    static void installGlobal(const std::string &spec);

  private:
    bool enabled_ = false;
    std::uint64_t seed_ = 1;
    unsigned maxAttempts_ = 1;
    double prob_[kNumFaultSites] = {0, 0, 0, 0};
};

} // namespace vca

#endif // VCA_SIM_FAULT_INJECT_HH
