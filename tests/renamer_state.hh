/**
 * @file
 * A text dump of a renamer's replacement state, for tests that require
 * two cores to end in exactly the same state (idle-cycle skipping
 * against ticking, a drained core against a fresh one).
 */

#ifndef VCA_TESTS_RENAMER_STATE_HH
#define VCA_TESTS_RENAMER_STATE_HH

#include <algorithm>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/vca_renamer.hh"
#include "cpu/ooo_cpu.hh"

namespace vca::test {

inline void
dumpEntry(std::ostream &os, const core::TableEntry &e)
{
    os << " addr " << e.addr << " rsid " << e.rsid << " front "
       << e.front << " commit " << e.commit << " spec "
       << e.specProducers << " lru " << e.lru << "\n";
}

/**
 * Every PhysState, rename-table entry and RSID entry of a VCA renamer
 * (ideal windows included), LRU stamps and stamp counters included;
 * "" for the conventional renamers.
 */
inline std::string
renamerState(cpu::OooCpu &cpu)
{
    const auto *vca =
        dynamic_cast<const core::VcaRenamer *>(&cpu.renamer());
    if (!vca)
        return "";
    std::ostringstream os;
    const core::RegStateArray &regs = vca->regState();
    const core::RenameTable &table = vca->table();
    os << "stamps: regs " << regs.clock().now() << " table "
       << table.clock().now() << " rsid " << vca->rsid().clock().now()
       << "; free " << regs.numFree() << "\n";
    for (unsigned p = 0; p < regs.numRegs(); ++p) {
        const core::PhysState &s = regs[PhysRegIndex(p)];
        os << "p" << p << " addr " << s.addr << " ref " << s.refCount
           << " ow " << s.overwriters << " c" << s.committed << " d"
           << s.dirty << " f" << s.fillPending << " z" << s.zombie
           << " lru " << s.lru << "\n";
    }
    if (table.unbounded()) {
        std::vector<const core::TableEntry *> entries;
        table.forEach([&](const core::TableEntry &e) {
            entries.push_back(&e);
        });
        std::sort(entries.begin(), entries.end(),
                  [](const auto *a, const auto *b) {
                      return a->addr < b->addr;
                  });
        for (const core::TableEntry *e : entries)
            dumpEntry(os << "entry", *e);
    } else {
        for (size_t w = 0; w < table.ways().size(); ++w) {
            const core::TableEntry &e = table.ways()[w];
            dumpEntry(os << "way " << w << (e.valid ? "" : " invalid"),
                      e);
        }
    }
    for (unsigned r = 0; r < vca->rsid().size(); ++r) {
        os << "rsid " << r << " ref " << vca->rsid().refCount(int(r))
           << " lru " << vca->rsid().lru(int(r)) << "\n";
    }
    return os.str();
}

} // namespace vca::test

#endif // VCA_TESTS_RENAMER_STATE_HH
