/**
 * @file
 * Register-space-identifier (RSID) translation table (paper §2.2.1).
 *
 * The upper bits of each logical-register memory address are mapped
 * through a small fully-associative table to an RSID; the rename-table
 * tag is then only {RSID, low offset bits} instead of the full address.
 * When the table is full and a new register space arrives, a victim
 * RSID must be reclaimed, which requires flushing every physical
 * register still tagged with it. Per-RSID reference counts let unused
 * RSIDs be reclaimed without a flush.
 */

#ifndef VCA_CORE_RSID_TABLE_HH
#define VCA_CORE_RSID_TABLE_HH

#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/lru_clock.hh"
#include "sim/types.hh"
#include "stats/statistics.hh"

namespace vca::core {

class RsidTable : public stats::StatGroup
{
  public:
    static constexpr int noRsid = -1;

    RsidTable(unsigned entries, unsigned offsetBits,
              stats::StatGroup *parent)
        : stats::StatGroup("rsid", parent),
          hits(this, "hits", "RSID table hits"),
          allocations(this, "allocations", "new RSIDs allocated"),
          reclaimsClean(this, "reclaims_clean",
                        "unused RSIDs reclaimed without a flush"),
          flushes(this, "flushes",
                  "RSID replacements requiring a register flush"),
          offsetBits_(offsetBits), entries_(entries)
    {
        if (entries == 0)
            fatal("RSID table needs at least one entry");
        table_.resize(entries);
    }

    /** Every entry invalid and the LRU clock at 0, as constructed
     *  (statistics are the owner's to reset). */
    void
    reset()
    {
        table_.assign(entries_, Entry{});
        clock_ = LruClock{};
    }

    std::uint64_t upperBits(Addr addr) const { return addr >> offsetBits_; }

    /** Look up the RSID for an address; noRsid on miss. */
    int
    lookup(Addr addr)
    {
        const std::uint64_t upper = upperBits(addr);
        for (unsigned i = 0; i < entries_; ++i) {
            if (table_[i].valid && table_[i].upper == upper) {
                clock_.stamp(table_[i].lru);
                ++hits;
                return static_cast<int>(i);
            }
        }
        return noRsid;
    }

    /**
     * Allocate an RSID for an address.
     * @retval >=0      the new RSID (entry was free or had refCount 0)
     * @retval noRsid   every entry is in use; victim() says which RSID
     *                  must be flushed before retrying
     */
    int
    allocate(Addr addr)
    {
        const std::uint64_t upper = upperBits(addr);
        int victim = -1;
        std::uint64_t oldest = ~std::uint64_t(0);
        for (unsigned i = 0; i < entries_; ++i) {
            if (!table_[i].valid) {
                install(i, upper);
                ++allocations;
                return static_cast<int>(i);
            }
            if (table_[i].refCount == 0 && table_[i].lru < oldest) {
                oldest = table_[i].lru;
                victim = static_cast<int>(i);
            }
        }
        if (victim >= 0) {
            // Valid but unused: reclaim without flushing.
            install(static_cast<unsigned>(victim), upper);
            ++reclaimsClean;
            ++allocations;
            return victim;
        }
        return noRsid;
    }

    /** LRU in-use RSID to flush when allocate() fails. */
    int
    victim() const
    {
        int v = -1;
        std::uint64_t oldest = ~std::uint64_t(0);
        for (unsigned i = 0; i < entries_; ++i) {
            if (table_[i].valid && table_[i].lru < oldest) {
                oldest = table_[i].lru;
                v = static_cast<int>(i);
            }
        }
        return v;
    }

    /** Called when the flush of a victim RSID's registers completed. */
    void
    invalidate(int rsid)
    {
        auto &e = table_.at(rsid);
        if (e.refCount != 0)
            panic("invalidating RSID %d with refCount %u", rsid,
                  e.refCount);
        e.valid = false;
        ++flushes;
    }

    void addRef(int rsid) { ++table_.at(rsid).refCount; }

    void
    dropRef(int rsid)
    {
        auto &e = table_.at(rsid);
        if (e.refCount == 0)
            panic("RSID %d refCount underflow", rsid);
        --e.refCount;
    }

    unsigned refCount(int rsid) const { return table_.at(rsid).refCount; }
    std::uint64_t lru(int rsid) const { return table_.at(rsid).lru; }

    LruClock &clock() { return clock_; }
    const LruClock &clock() const { return clock_; }
    unsigned size() const { return entries_; }

    stats::Scalar hits;
    stats::Scalar allocations;
    stats::Scalar reclaimsClean;
    stats::Scalar flushes;

  private:
    struct Entry
    {
        bool valid = false;
        std::uint64_t upper = 0;
        unsigned refCount = 0;
        std::uint64_t lru = 0;
    };

    void
    install(unsigned i, std::uint64_t upper)
    {
        table_[i].valid = true;
        table_[i].upper = upper;
        table_[i].refCount = 0;
        clock_.stamp(table_[i].lru);
    }

    unsigned offsetBits_;
    unsigned entries_;
    std::vector<Entry> table_;
    LruClock clock_;
};

} // namespace vca::core

#endif // VCA_CORE_RSID_TABLE_HH
