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

/** Most DRAM channels a machine may have. The address map
 *  (src/dram/address.h) deals consecutive 64-byte lines round-robin
 *  over the channels, so at 2^16 channels a 4 MiB sequential sweep
 *  already puts a single line on each; more only adds controllers
 *  that MemorySystem allocates up front and no stream fills. */
inline constexpr std::uint32_t kMaxChannels = std::uint32_t{1} << 16;

/** Sentinel for "no cycle" / "not yet happened". */
inline constexpr Cycle kNoCycle = std::numeric_limits<Cycle>::max();

/** Sentinel for an invalid address. */
inline constexpr Addr kNoAddr = std::numeric_limits<Addr>::max();

/** Sentinel core id used for traffic not belonging to any core. */
inline constexpr CoreId kNoCore = std::numeric_limits<CoreId>::max();

} // namespace camo

#endif // CAMO_COMMON_TYPES_H
