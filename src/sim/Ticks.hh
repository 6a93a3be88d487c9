/**
 * @file
 * Simulation time base.
 *
 * The simulator counts time in abstract ticks; one tick equals one
 * picosecond, mirroring gem5's convention. All component latencies are
 * expressed as Tick deltas so heterogeneous clock domains (CPU cycles,
 * DRAM command slots, PCIe symbol times, Ethernet bit times) compose
 * without rounding surprises.
 */

#ifndef NETDIMM_SIM_TICKS_HH
#define NETDIMM_SIM_TICKS_HH

#include <cstdint>

namespace netdimm
{

/** Simulation time, in picoseconds. */
using Tick = std::uint64_t;

/** Maximum representable tick; used as "never". */
constexpr Tick maxTick = ~Tick(0);

/** One picosecond expressed in ticks. */
constexpr Tick tickPerPs = 1;
/** One nanosecond expressed in ticks. */
constexpr Tick tickPerNs = 1000 * tickPerPs;
/** One microsecond expressed in ticks. */
constexpr Tick tickPerUs = 1000 * tickPerNs;
/** One millisecond expressed in ticks. */
constexpr Tick tickPerMs = 1000 * tickPerUs;
/** One second expressed in ticks. */
constexpr Tick tickPerSec = 1000 * tickPerMs;

/** Convert nanoseconds to ticks. */
constexpr Tick nsToTicks(double ns) { return Tick(ns * tickPerNs); }
/** Convert microseconds to ticks. */
constexpr Tick usToTicks(double us) { return Tick(us * tickPerUs); }

/** Convert ticks to nanoseconds (lossy). */
constexpr double ticksToNs(Tick t) { return double(t) / tickPerNs; }
/** Convert ticks to microseconds (lossy). */
constexpr double ticksToUs(Tick t) { return double(t) / tickPerUs; }
/** Convert ticks to seconds (lossy). */
constexpr double ticksToSec(Tick t) { return double(t) / tickPerSec; }

/**
 * Ticks consumed by one cycle of a clock running at @p freq_ghz.
 * E.g. 3.4 GHz -> 294 ticks per cycle (truncated).
 */
constexpr Tick
cyclePeriod(double freq_ghz)
{
    return Tick(1000.0 / freq_ghz);
}

/**
 * Serialization time of @p bytes over a link of @p gbps gigabits per
 * second, in ticks.
 */
constexpr Tick
serializationTicks(std::uint64_t bytes, double gbps)
{
    // bits / (Gb/s) = ns; ns * 1000 = ticks.
    return Tick(double(bytes * 8ull) / gbps * double(tickPerNs));
}

} // namespace netdimm

#endif // NETDIMM_SIM_TICKS_HH
