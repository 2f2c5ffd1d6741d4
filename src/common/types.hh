/**
 * @file
 * Fundamental value types shared across the ppm library.
 *
 * The simulation measures time in integer microseconds and computational
 * capacity in Processing Units (PU).  Following the paper, one PU is one
 * million processor cycles per second, so a core clocked at F MHz supplies
 * exactly F PUs.
 */

#ifndef PPM_COMMON_TYPES_HH
#define PPM_COMMON_TYPES_HH

#include <cmath>
#include <cstdint>
#include <optional>

namespace ppm {

/** Simulation time in microseconds. */
using SimTime = std::int64_t;

/** One millisecond expressed in SimTime units. */
inline constexpr SimTime kMillisecond = 1000;

/** One second expressed in SimTime units. */
inline constexpr SimTime kSecond = 1000 * kMillisecond;

/**
 * Computational capacity in Processing Units.
 *
 * 1 PU == 1e6 cycles/s, so a 1000 MHz core supplies 1000 PU.  Fractional
 * values arise from proportional sharing, hence a floating type.
 */
using Pu = double;

/** Cycles of work (1 PU sustained for 1 s == 1e6 cycles). */
using Cycles = double;

/** Cycles contained in one PU-second. */
inline constexpr Cycles kCyclesPerPuSecond = 1e6;

/** Electrical power in watts. */
using Watts = double;

/** Energy in joules. */
using Joules = double;

/** Virtual currency used by the market framework. */
using Money = double;

/** Identifier types.  Values index into the owning container. */
using CoreId = int;
using ClusterId = int;
using TaskId = int;

/** Sentinel for "no core" / "no cluster" / "no task". */
inline constexpr int kInvalidId = -1;

/**
 * Longest span an input may name: 10^6 simulated seconds (about 11.6
 * days, over 3,000 times the paper's 300 s runs).  Sums and products
 * of input times (a run end plus a grace period, a phase table's
 * horizon) then stay far inside SimTime's range.
 */
inline constexpr SimTime kMaxInputTime = 1000000 * kSecond;

/**
 * `count` units of `unit` (kSecond, kMillisecond) as SimTime,
 * truncated toward zero; nullopt unless `count` is finite, >= 0 and
 * the span is at most kMaxInputTime.  Every parser of user-supplied
 * times (the CLI, --faults specs, fuzz fixtures) converts through
 * this, so no input reaches an out-of-range cast or an overflowing
 * multiply.
 */
inline std::optional<SimTime>
checked_sim_time(double count, SimTime unit)
{
    if (!std::isfinite(count) || count < 0.0 ||
        count > static_cast<double>(kMaxInputTime / unit))
        return std::nullopt;
    return static_cast<SimTime>(count * static_cast<double>(unit));
}

/** Convert a SimTime duration to (fractional) seconds. */
constexpr double
to_seconds(SimTime t)
{
    return static_cast<double>(t) / static_cast<double>(kSecond);
}

/** Work (in cycles) done by `pu` Processing Units over duration `t`. */
constexpr Cycles
work_done(Pu pu, SimTime t)
{
    return pu * kCyclesPerPuSecond * to_seconds(t);
}

} // namespace ppm

#endif // PPM_COMMON_TYPES_HH
