/**
 * @file
 * Fundamental scalar types shared by every Camouflage subsystem.
 */

#ifndef CAMO_COMMON_TYPES_H
#define CAMO_COMMON_TYPES_H

#include <cstdint>
#include <limits>

namespace camo {

/** Simulation time in CPU cycles (2.4 GHz in the paper's Table II). */
using Cycle = std::uint64_t;

/** Physical byte address. */
using Addr = std::uint64_t;

/** Identifier of a processor core / hardware thread. */
using CoreId = std::uint32_t;

/** Monotonically increasing identifier for memory transactions. */
using ReqId = std::uint64_t;

/** Most cores a machine may have: a ReqId carries its core in the
 *  top 16 bits (core << 48), so core 65536 would reuse core 0's ids. */
inline constexpr CoreId kMaxCores = CoreId{1} << 16;

/** Sentinel for "no cycle" / "not yet happened". */
inline constexpr Cycle kNoCycle = std::numeric_limits<Cycle>::max();

/** Sentinel for an invalid address. */
inline constexpr Addr kNoAddr = std::numeric_limits<Addr>::max();

/** Sentinel core id used for traffic not belonging to any core. */
inline constexpr CoreId kNoCore = std::numeric_limits<CoreId>::max();

} // namespace camo

#endif // CAMO_COMMON_TYPES_H
