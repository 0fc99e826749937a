/**
 * @file
 * Merged physical register file: 64-bit values plus ready bits and a
 * per-register waiter count used by the wakeup logic. The paper keeps
 * the physical register file design unchanged across all four
 * architectures (Section 1), so this one class serves every renamer.
 */

#ifndef VCA_CPU_PHYS_REGFILE_HH
#define VCA_CPU_PHYS_REGFILE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace vca::cpu {

class PhysRegFile
{
  public:
    explicit PhysRegFile(unsigned numRegs)
        : values_(numRegs, 0), ready_(numRegs, false)
    {
    }

    unsigned numRegs() const { return values_.size(); }

    /** Every register back to 0 and not ready, as constructed. */
    void
    reset()
    {
        std::fill(values_.begin(), values_.end(), 0);
        std::fill(ready_.begin(), ready_.end(), 0);
    }

    std::uint64_t
    read(PhysRegIndex reg) const
    {
        return values_[check(reg)];
    }

    void
    write(PhysRegIndex reg, std::uint64_t value)
    {
        values_[check(reg)] = value;
    }

    bool isReady(PhysRegIndex reg) const { return ready_[check(reg)]; }

    void setReady(PhysRegIndex reg, bool r = true)
    {
        ready_[check(reg)] = r;
    }

  private:
    // Rename hands out indices it validated against the file size, so
    // reads/writes only guard the invalid-sentinel case; ready_ stores
    // bytes, not vector<bool> bits, because the wakeup loop hammers it.
    size_t
    check(PhysRegIndex reg) const
    {
        if (reg < 0 || static_cast<size_t>(reg) >= values_.size())
            panic("physical register index %d invalid", int(reg));
        return static_cast<size_t>(reg);
    }

    std::vector<std::uint64_t> values_;
    std::vector<std::uint8_t> ready_;
};

} // namespace vca::cpu

#endif // VCA_CPU_PHYS_REGFILE_HH
