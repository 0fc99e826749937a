#include "sim/fault_inject.hh"

#include <atomic>
#include <cstdlib>
#include <limits>
#include <mutex>

#include "sim/logging.hh"
#include "sim/options.hh"

namespace vca {

namespace {

/** splitmix64 finalizer: the same mixer the sweep seeds use. */
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::atomic<std::uint64_t> gFired[kNumFaultSites];

FaultInjector &
globalMutable()
{
    static FaultInjector inst = [] {
        const char *env = std::getenv("VCA_FAULT_INJECT");
        return env && *env ? FaultInjector::parse(env) : FaultInjector();
    }();
    return inst;
}

} // namespace

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::WorkerCrash:     return "crash";
      case FaultSite::WorkerHang:      return "hang";
      case FaultSite::CacheCorruptRead: return "corrupt";
      case FaultSite::CacheWriteFail:  return "writefail";
    }
    return "?";
}

FaultInjector
FaultInjector::parse(const std::string &spec)
{
    FaultInjector fi;
    fi.enabled_ = true;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t end = spec.find(',', pos);
        if (end == std::string::npos)
            end = spec.size();
        const std::string item = spec.substr(pos, end - pos);
        pos = end + 1;
        if (item.empty())
            continue;
        const size_t eq = item.find('=');
        if (eq == std::string::npos)
            fatal("VCA_FAULT_INJECT: expected key=value, got '%s'",
                  item.c_str());
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        if (key == "seed") {
            const auto n = parseU64(value);
            if (!n)
                fatal("VCA_FAULT_INJECT: bad seed '%s'", value.c_str());
            fi.seed_ = *n ? *n : 1;
            continue;
        }
        if (key == "attempts") {
            const auto n = parseU64(value);
            if (!n || *n == 0 || *n > std::numeric_limits<unsigned>::max())
                fatal("VCA_FAULT_INJECT: bad attempts '%s'",
                      value.c_str());
            fi.maxAttempts_ = static_cast<unsigned>(*n);
            continue;
        }
        int site = -1;
        for (unsigned s = 0; s < kNumFaultSites; ++s)
            if (key == faultSiteName(static_cast<FaultSite>(s)))
                site = static_cast<int>(s);
        if (site < 0)
            fatal("VCA_FAULT_INJECT: unknown key '%s' (seed, attempts, "
                  "crash, hang, corrupt, writefail)", key.c_str());
        char *rest = nullptr;
        const double p = std::strtod(value.c_str(), &rest);
        if (!rest || *rest || !(p >= 0.0 && p <= 1.0))
            fatal("VCA_FAULT_INJECT: %s probability '%s' not in [0,1]",
                  key.c_str(), value.c_str());
        fi.prob_[site] = p;
    }
    return fi;
}

double
FaultInjector::probability(FaultSite site) const
{
    return prob_[static_cast<unsigned>(site)];
}

bool
FaultInjector::shouldFire(FaultSite site, std::uint64_t id,
                          unsigned attempt) const
{
    const unsigned idx = static_cast<unsigned>(site);
    const double p = prob_[idx];
    if (p <= 0.0 || attempt >= maxAttempts_)
        return false;
    // Independent per-site streams: chain the finalizer over the salt,
    // the id and the attempt so nearby ids decorrelate fully.
    std::uint64_t z = mix64(seed_ ^ (0xa24baed4963ee407ULL * (idx + 1)));
    z = mix64(z ^ id);
    z = mix64(z ^ attempt);
    const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
    if (u >= p)
        return false;
    gFired[idx].fetch_add(1, std::memory_order_relaxed);
    return true;
}

std::uint64_t
FaultInjector::firedCount(FaultSite site)
{
    return gFired[static_cast<unsigned>(site)].load(
        std::memory_order_relaxed);
}

void
FaultInjector::resetFiredCounts()
{
    for (auto &c : gFired)
        c.store(0, std::memory_order_relaxed);
}

const FaultInjector &
FaultInjector::global()
{
    return globalMutable();
}

void
FaultInjector::installGlobal(const std::string &spec)
{
    globalMutable() = spec.empty() ? FaultInjector()
                                   : FaultInjector::parse(spec);
}

} // namespace vca
