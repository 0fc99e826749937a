/**
 * @file
 * The VCA tagged, set-associative rename table (paper §2.1.1, §2.2.1).
 *
 * Each entry maps one logical-register memory address to its newest
 * (front) and committed physical registers. The paper describes the
 * front-end table and the P4-style commit table as separate structures
 * with identical geometry; we model them as one structure with two
 * physical-register fields, which is functionally equivalent (see
 * DESIGN.md). The index is taken from the low address bits; the stored
 * tag is {RSID, remaining offset bits}, but for simulation we keep the
 * full address and account the tag width separately.
 *
 * An "unbounded" mode (sets == 0) backs the idealized register-window
 * model: no conflict or capacity constraints.
 */

#ifndef VCA_CORE_RENAME_TABLE_HH
#define VCA_CORE_RENAME_TABLE_HH

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "sim/logging.hh"
#include "sim/lru_clock.hh"
#include "sim/types.hh"

namespace vca::core {

struct TableEntry
{
    bool valid = false;
    Addr addr = invalidAddr;
    int rsid = -1;
    PhysRegIndex front = invalidPhysReg;
    PhysRegIndex commit = invalidPhysReg;
    /**
     * Renamed-but-uncommitted producers targeting this logical
     * register. The committed copy's PhysState::overwriters mirrors
     * this count so replacement can deprioritize registers that are
     * about to be overwritten (paper 2.1.2).
     */
    std::uint32_t specProducers = 0;
    std::uint64_t lru = 0;
};

class RenameTable
{
  public:
    /** sets == 0 selects the unbounded (ideal) table. */
    RenameTable(unsigned sets, unsigned assoc)
        : sets_(sets), assoc_(assoc)
    {
        if (sets_ > 0) {
            entries_.resize(size_t(sets_) * assoc_);
            tags_.resize(entries_.size(), invalidAddr);
            byLru_.resize(assoc_);
        }
    }

    bool unbounded() const { return sets_ == 0; }
    unsigned sets() const { return sets_; }
    unsigned assoc() const { return assoc_; }

    /** Set index for an address (low register-slot bits). */
    size_t
    setIndex(Addr addr) const
    {
        // sets_ is a power of two in every paper configuration; fall
        // back to modulo only for odd experimental geometries.
        const size_t slot = static_cast<size_t>(addr >> 3);
        return (sets_ & (sets_ - 1)) == 0 ? (slot & (sets_ - 1))
                                          : (slot % sets_);
    }

    /** Find the entry mapping addr, or nullptr. */
    TableEntry *
    lookup(Addr addr)
    {
        if (unbounded()) {
            auto it = map_.find(addr);
            if (it == map_.end() || !it->second.valid)
                return nullptr;
            clock_.stamp(it->second.lru);
            return &it->second;
        }
        const size_t set = setIndex(addr) * assoc_;
        for (unsigned w = 0; w < assoc_; ++w) {
            TableEntry &way = entries_[set + w];
            if (tags_[set + w] == addr && way.valid) {
                clock_.stamp(way.lru);
                return &way;
            }
        }
        return nullptr;
    }

    /** A free (invalid) way in addr's set, or nullptr. */
    TableEntry *
    freeWay(Addr addr)
    {
        if (unbounded())
            return &map_[addr]; // creates an invalid entry in place
        const size_t set = setIndex(addr) * assoc_;
        for (unsigned w = 0; w < assoc_; ++w) {
            if (tags_[set + w] == invalidAddr)
                return &entries_[set + w];
        }
        return nullptr;
    }

    /**
     * All valid ways in addr's set ordered by ascending LRU stamp
     * (replacement candidates; caller filters by evictability). The
     * view is into a buffer sized to the associativity, valid until
     * the next call. Stamps are unique, so the order has no ties.
     */
    std::span<TableEntry *const>
    waysByLru(Addr addr)
    {
        if (unbounded())
            return {};
        TableEntry *ways = &entries_[setIndex(addr) * assoc_];
        size_t n = 0;
        for (unsigned w = 0; w < assoc_; ++w) {
            if (!ways[w].valid)
                continue;
            size_t i = n++;
            for (; i > 0 && byLru_[i - 1]->lru > ways[w].lru; --i)
                byLru_[i] = byLru_[i - 1];
            byLru_[i] = &ways[w];
        }
        return {byLru_.data(), n};
    }

    void
    install(TableEntry *entry, Addr addr, int rsid)
    {
        entry->valid = true;
        entry->addr = addr;
        entry->rsid = rsid;
        entry->front = invalidPhysReg;
        entry->commit = invalidPhysReg;
        clock_.stamp(entry->lru);
        if (!unbounded())
            tags_[entry - entries_.data()] = addr;
    }

    void
    invalidate(TableEntry *entry)
    {
        clock_.forget(entry->lru);
        if (unbounded()) {
            map_.erase(entry->addr);
            return;
        }
        tags_[entry - entries_.data()] = invalidAddr;
        *entry = TableEntry{};
    }

    /** Visit every valid entry (for RSID flushes and validation). */
    template <typename Fn>
    void
    forEach(Fn fn)
    {
        forEachIn(*this, fn);
    }
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        forEachIn(*this, fn);
    }

    /** Every way of a bounded table, valid or not, in index order. */
    const std::vector<TableEntry> &ways() const { return entries_; }

    LruClock &clock() { return clock_; }
    const LruClock &clock() const { return clock_; }

    /** Number of valid entries (stats / tests). */
    size_t
    validCount() const
    {
        size_t n = 0;
        for (const TableEntry &e : entries_)
            n += e.valid ? 1 : 0;
        if (unbounded()) {
            for (const auto &[addr, e] : map_)
                n += e.valid ? 1 : 0;
        }
        return n;
    }

  private:
    template <typename Self, typename Fn>
    static void
    forEachIn(Self &self, Fn &fn)
    {
        if (self.unbounded()) {
            for (auto &[addr, e] : self.map_) {
                if (e.valid)
                    fn(e);
            }
            return;
        }
        for (auto &e : self.entries_) {
            if (e.valid)
                fn(e);
        }
    }

    unsigned sets_;
    unsigned assoc_;
    std::vector<TableEntry> entries_;
    // Each way's address (invalidAddr when invalid), so a lookup or a
    // free-way search reads one dense line per set, not every entry.
    std::vector<Addr> tags_;
    std::vector<TableEntry *> byLru_; ///< waysByLru() buffer
    std::unordered_map<Addr, TableEntry> map_; ///< unbounded mode
    LruClock clock_;
};

} // namespace vca::core

#endif // VCA_CORE_RENAME_TABLE_HH
