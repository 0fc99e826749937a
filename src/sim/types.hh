/**
 * @file
 * Fundamental scalar types shared by every simulator module.
 */

#ifndef VCA_SIM_TYPES_HH
#define VCA_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace vca {

/** A memory address in the simulated machine (byte granularity). */
using Addr = std::uint64_t;

/** A simulated clock cycle count. */
using Cycle = std::uint64_t;

/** A count of dynamic instructions. */
using InstCount = std::uint64_t;

/** An architectural (logical) register index within its class. */
using RegIndex = std::uint16_t;

/** A physical register index. */
using PhysRegIndex = std::int32_t;

/** A hardware thread identifier. */
using ThreadId = std::uint8_t;

/** Sentinel physical register meaning "no register". */
constexpr PhysRegIndex invalidPhysReg = -1;

/** Sentinel cycle meaning "never": no event due, no cycle budget. */
constexpr Cycle neverCycle = std::numeric_limits<Cycle>::max();

/** Sentinel address used for "no address". */
constexpr Addr invalidAddr = std::numeric_limits<Addr>::max();

/** Maximum number of hardware threads any structure must support. */
constexpr unsigned maxThreads = 8;

} // namespace vca

#endif // VCA_SIM_TYPES_HH
