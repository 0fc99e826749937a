#include "mem/cache.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "trace/debug_flags.hh"

namespace vca::mem {

Cache::Cache(const CacheParams &params, Cache *next, unsigned memLatency,
             stats::StatGroup *parent)
    : stats::StatGroup(params.name, parent),
      accesses(this, "accesses", "total accesses"),
      hits(this, "hits", "accesses that hit"),
      misses(this, "misses", "accesses that missed"),
      writebacks(this, "writebacks", "dirty lines written back"),
      mshrRejects(this, "mshr_rejects", "accesses rejected: MSHRs full"),
      params_(params), next_(next), memLatency_(memLatency)
{
    if (params_.lineBytes == 0 || (params_.lineBytes & (params_.lineBytes - 1)))
        fatal("cache %s: line size must be a power of two",
              params_.name.c_str());
    if (params_.assoc == 0)
        fatal("cache %s: associativity must be >= 1", params_.name.c_str());
    const std::uint64_t numLines = params_.sizeBytes / params_.lineBytes;
    if (numLines == 0 || numLines % params_.assoc != 0)
        fatal("cache %s: size/line/assoc mismatch", params_.name.c_str());
    numSets_ = numLines / params_.assoc;
    while ((Addr(1) << lineShift_) < params_.lineBytes)
        ++lineShift_;
    if ((numSets_ & (numSets_ - 1)) == 0)
        setMask_ = numSets_ - 1;
    lines_.assign(numLines, Line{});
}

Cycle
Cache::fillLatency(Addr addr, bool write, Cycle now)
{
    if (next_) {
        // A fill is a read from the next level regardless of whether the
        // triggering access was a write (write-allocate).
        AccessResult r = next_->access(addr, false, now);
        (void)write;
        return r.latency;
    }
    return memLatency_;
}

AccessResult
Cache::accessSet(Addr line, Addr addr, bool write, Cycle now)
{
    const size_t set = setIndex(line);
    Line *ways = &lines_[set * params_.assoc];

    // Lazily retire completed in-flight fills.
    if (!inflight_.empty()) {
        for (auto it = inflight_.begin(); it != inflight_.end();) {
            if (it->second <= now)
                it = inflight_.erase(it);
            else
                ++it;
        }
    }

    // Tag check.
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (ways[w].valid && ways[w].tag == line) {
            setMru(&ways[w], line);
            return hit(ways[w], write);
        }
    }
    setMru(nullptr, 0);

    // Miss. Merge with an in-flight fill for the same line if present.
    auto inflightIt = inflight_.find(line);
    if (inflightIt != inflight_.end()) {
        ++accesses;
        ++misses;
        DPRINTF(Cache, "%s: miss 0x%llx merged into in-flight fill",
                params_.name.c_str(), (unsigned long long)addr);
        Cycle ready = std::max(inflightIt->second, now + params_.hitLatency);
        return {true, false, ready - now};
    }

    if (inflight_.size() >= params_.mshrs) {
        // No MSHR available: caller must retry. The access still consumed
        // a port but is not counted as a hit or miss.
        ++mshrRejects;
        DPRINTF(Cache, "%s: MSHRs full, rejecting 0x%llx",
                params_.name.c_str(), (unsigned long long)addr);
        return {false, false, 0};
    }

    ++accesses;
    ++misses;
    DPRINTF(Cache, "%s: %s miss 0x%llx", params_.name.c_str(),
            write ? "write" : "read", (unsigned long long)addr);

    // Choose a victim (invalid first, else LRU) and install the new tag.
    Line *victim = &ways[0];
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (!ways[w].valid) {
            victim = &ways[w];
            break;
        }
        if (ways[w].lruStamp < victim->lruStamp)
            victim = &ways[w];
    }
    if (victim->valid && victim->dirty) {
        ++writebacks;
        DPRINTF(Cache, "%s: writeback 0x%llx", params_.name.c_str(),
                (unsigned long long)(victim->tag * params_.lineBytes));
        if (next_) {
            // Timing of the writeback is off the critical path; we only
            // record the traffic at the next level.
            next_->access(victim->tag * params_.lineBytes, true, now);
        }
    }

    const Cycle fill = fillLatency(addr, write, now);
    const Cycle total = params_.hitLatency + fill;

    validLines_ += victim->valid ? 0 : 1;
    victim->valid = true;
    victim->dirty = write;
    victim->tag = line;
    victim->lruStamp = ++stamp_;
    inflight_[line] = now + total;
    setMru(victim, line);

    return {true, false, total};
}

void
Cache::invalidateAll()
{
    for (Line &l : lines_)
        l = Line{};
    validLines_ = 0;
    inflight_.clear();
    setMru(nullptr, 0);
    if (next_)
        next_->invalidateAll();
}

MemSystem::MemSystem(const MemSystemParams &params, stats::StatGroup *parent)
    : stats::StatGroup("mem", parent),
      l2_(params.l2, nullptr, params.memLatency, this),
      il1_(params.il1, &l2_, params.memLatency, this),
      dl1_(params.dl1, &l2_, params.memLatency, this)
{
}

void
MemSystem::invalidateAll()
{
    il1_.invalidateAll();
    dl1_.invalidateAll();
    // il1_/dl1_ both forward to l2_; idempotent.
}

} // namespace vca::mem
