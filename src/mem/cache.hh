/**
 * @file
 * Set-associative cache timing model.
 *
 * The caches model tags, LRU replacement, writebacks, and outstanding
 * misses (MSHR-style merging of accesses to an in-flight line). They do
 * not hold data: architectural data lives in SparseMemory, which is what
 * an execution-driven timing CPU reads/writes; the cache answers "how
 * long does this access take" and keeps the access statistics the
 * paper's Figures 5 and 6 are built from.
 */

#ifndef VCA_MEM_CACHE_HH
#define VCA_MEM_CACHE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"
#include "stats/statistics.hh"

namespace vca::mem {

/** Configuration for one cache level. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 64 * 1024;
    unsigned assoc = 4;
    unsigned lineBytes = 64;
    unsigned hitLatency = 3;
    unsigned mshrs = 16; ///< max distinct lines in flight
};

/** Result of a timing access. */
struct AccessResult
{
    bool accepted = true;  ///< false => out of MSHRs, retry next cycle
    bool hit = true;
    Cycle latency = 0;     ///< total cycles until data available
};

/**
 * One cache level. Levels are chained via the next pointer; the last
 * level's misses cost memLatency.
 */
class Cache : public stats::StatGroup
{
  public:
    Cache(const CacheParams &params, Cache *next, unsigned memLatency,
          stats::StatGroup *parent);

    /**
     * Perform a timing access.
     * @param addr   byte address (already thread-tagged for SMT)
     * @param write  true for stores / spills
     * @param now    current cycle, never less than the last access's
     */
    AccessResult
    access(Addr addr, bool write, Cycle now)
    {
        // MRU fast path: the line the last accepted access hit or
        // installed is still valid under the same tag. Retiring
        // in-flight fills is skipped too: now never decreases for a
        // cache, so the next full access retires the same entries plus
        // any completed since.
        const Addr line = lineAddr(addr);
        if (mru_ && line == mruLine_)
            return hit(*mru_, write);
        return accessSet(line, addr, write, now);
    }

    /** Invalidate all tags (used between warm-up configurations). */
    void invalidateAll();

    /**
     * Forget every in-flight fill and the remembered MRU line, keeping
     * tags, LRU stamps and statistics. Sampled simulation drains the
     * core's caches at each hand-off between the warm clock and the
     * detailed core's cycle count: the two time bases are unrelated,
     * so nothing timestamped may cross, while the tags and LRU order
     * (stamped by an internal access counter) carry over untouched.
     */
    void
    drain()
    {
        inflight_.clear();
        setMru(nullptr, 0);
    }

    /**
     * Fraction of lines holding a valid tag — how warm this level is.
     * The sampled modes record it at each switch-in so per-sample
     * error can be correlated with warmth. O(1): a count of valid
     * lines is kept wherever a line turns valid or invalid.
     */
    double
    tagValidFraction() const
    {
        if (lines_.empty())
            return 0;
        return double(validLines_) / double(lines_.size());
    }

    const CacheParams &params() const { return params_; }

    // Statistics (public so formulas/benches can read them).
    stats::Scalar accesses;
    stats::Scalar hits;
    stats::Scalar misses;
    stats::Scalar writebacks;
    stats::Scalar mshrRejects;

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        Cycle lruStamp = 0;
    };

    // lineBytes is fatal-checked to be a power of two, and numSets_ is
    // a power of two in every standard config, so both computations
    // reduce to shift/mask on the hot path (modulo fallback otherwise).
    Addr lineAddr(Addr addr) const { return addr >> lineShift_; }
    size_t
    setIndex(Addr line) const
    {
        return setMask_ ? (line & setMask_) : (line % numSets_);
    }

    /** access() past the MRU fast path: retire completed fills, check
     *  the tags of @p line's set, and handle a miss. */
    AccessResult accessSet(Addr line, Addr addr, bool write, Cycle now);

    /** Latency for fetching a line from the next level downward. */
    Cycle fillLatency(Addr addr, bool write, Cycle now);

    /**
     * Hit bookkeeping on @p l, shared by the MRU fast path and the tag
     * check. A line installed by a miss still in flight is a hit here
     * too (it costs hitLatency, not the rest of the fill).
     */
    AccessResult
    hit(Line &l, bool write)
    {
        ++accesses;
        ++hits;
        l.lruStamp = ++stamp_;
        if (write)
            l.dirty = true;
        return {true, true, params_.hitLatency};
    }

    /** Point the MRU fast path at @p l, holding @p line (or at nothing). */
    void
    setMru(Line *l, Addr line)
    {
        mru_ = l;
        mruLine_ = line;
    }

    CacheParams params_;
    Cache *next_;
    unsigned memLatency_;
    size_t numSets_;
    unsigned lineShift_ = 0;
    Addr setMask_ = 0; ///< numSets_-1 when a power of two, else 0
    std::vector<Line> lines_; ///< numSets x assoc
    size_t validLines_ = 0; ///< lines_ entries with valid set
    Cycle stamp_ = 0;

    /**
     * The line of the last accepted access when it is in lines_ (a hit
     * or a newly installed miss), else null. Every path that can change
     * that line's way goes through access() and moves or clears it.
     */
    Line *mru_ = nullptr;
    Addr mruLine_ = 0;

    /** In-flight misses: line address -> cycle the fill completes. */
    std::unordered_map<Addr, Cycle> inflight_;
};

/** Parameters for the whole hierarchy (paper Table 1 defaults). */
struct MemSystemParams
{
    CacheParams il1{"icache", 64 * 1024, 4, 64, 1, 16};
    CacheParams dl1{"dcache", 64 * 1024, 4, 64, 3, 16};
    CacheParams l2{"l2", 1024 * 1024, 4, 64, 15, 32};
    unsigned memLatency = 250;
};

/**
 * The L1I/L1D/shared-L2/memory hierarchy.
 *
 * Port arbitration is the CPU's job (the LSU issues at most dcachePorts
 * operations per cycle); the hierarchy provides latencies and counts.
 */
class MemSystem : public stats::StatGroup
{
  public:
    explicit MemSystem(const MemSystemParams &params,
                       stats::StatGroup *parent = nullptr);

    AccessResult
    instAccess(Addr addr, Cycle now)
    {
        return il1_.access(addr, false, now);
    }

    AccessResult
    dataAccess(Addr addr, bool write, Cycle now)
    {
        return dl1_.access(addr, write, now);
    }

    void invalidateAll();

    /** See Cache::drain (covers all levels). */
    void
    drain()
    {
        l2_.drain();
        il1_.drain();
        dl1_.drain();
    }

    Cache &icache() { return il1_; }
    Cache &dcache() { return dl1_; }
    Cache &l2() { return l2_; }

    /** Valid-tag fraction across every line of every level (the
     *  hierarchy-wide warmth the sampling layer records). */
    double
    tagValidFraction() const
    {
        const auto lines = [](const Cache &c) {
            return double(c.params().sizeBytes / c.params().lineBytes);
        };
        const double total =
            lines(il1_) + lines(dl1_) + lines(l2_);
        if (total <= 0)
            return 0;
        return (il1_.tagValidFraction() * lines(il1_) +
                dl1_.tagValidFraction() * lines(dl1_) +
                l2_.tagValidFraction() * lines(l2_)) / total;
    }

    /** Tag an address with a thread id to model distinct address spaces. */
    static Addr
    threadTag(ThreadId tid, Addr addr)
    {
        return (Addr(tid) << 48) | addr;
    }

  private:
    Cache l2_;
    Cache il1_;
    Cache dl1_;
};

} // namespace vca::mem

#endif // VCA_MEM_CACHE_HH
