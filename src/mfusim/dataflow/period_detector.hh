/**
 * @file
 * Periodic-structure analysis of a decoded trace.
 *
 * Every Livermore trace is dominated by exact repetitions of a small
 * loop body: the same opcodes, registers, latencies and dependence
 * shape recur with a fixed stride.  detectPeriods() finds those
 * repetitions once per TraceBody so the timing simulators can
 * recognize iteration boundaries and, once their architectural state
 * repeats from one boundary to the next, close the remaining
 * iterations by exact extrapolation instead of simulating them (see
 * sim/steady_state.hh).
 *
 * A segment is anchored at taken branches (the loop back-edges): a
 * maximal run of equally spaced taken branches whose between-branch
 * op sequences are identical — same per-op signature (opcode, unit
 * class, flags, occupancy, registers: one compare of the body's
 * interned signature ids) and compatible dependence links.  Two corresponding links are compatible when both are
 * absent, both shift by exactly one period, or both name the same
 * fixed pre-segment producer (a loop-invariant value).  Latency is
 * not part of the signature: under one machine configuration it
 * follows from the opcode, so the analysis is the same for every
 * configuration and runs once per trace, on the configuration-
 * independent body that all configurations share.
 *
 * Nested loops with varying inner trip counts (LL6's triangular
 * kernel) decompose into many short segments, one per inner run;
 * singly nested kernels (LL7, LL13, LL14, ...) yield one segment
 * covering almost the whole trace.
 *
 * Hierarchical periodicity: segments whose steady-state bodies are
 * identical — same period, same per-op signatures, same normalized
 * link shape — share a *family* id.  A nested loop's inner runs are
 * all one family, so a simulator that confirmed steady state in one
 * run can trust a first state match in the next run of the same
 * family immediately (see sim/steady_state.hh): the outer loop level
 * is exploited through the families of its inner segments.
 */

#ifndef MFUSIM_DATAFLOW_PERIOD_DETECTOR_HH
#define MFUSIM_DATAFLOW_PERIOD_DETECTOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mfusim/core/decoded_trace.hh"

namespace mfusim
{

/**
 * One maximal run of identical trace periods.
 *
 * Ops [base, base + period * count) are `count` repetitions of the
 * same `period`-op body, each ending with a taken branch.  The
 * "boundaries" base + k*period (k = 0..count) each sit immediately
 * after a taken branch — the natural points for a simulator to
 * compare architectural state across iterations.
 */
struct TraceSegment
{
    std::size_t base = 0;       //!< first op of the first period
    std::size_t period = 0;     //!< ops per period
    std::size_t count = 0;      //!< number of complete periods

    /**
     * Dependence horizon: every in-segment producer link of a
     * steady-state op reaches back at most this many ops (and at
     * least one full period, so the final period's results cover
     * every register the body writes).
     */
    std::size_t lookback = 0;

    /** Non-branch ops per period (RUU insert-counter advance). */
    std::size_t inserts = 0;

    /**
     * Body-equivalence class: segments of one trace with the same
     * period and identical steady-state bodies (per-op signatures
     * and normalized dependence-link shape) carry the same family
     * id.  Ids are dense indices in discovery order.  The nested
     * levels of a hierarchically periodic trace (LL6) surface as
     * many segments of one family.
     */
    std::uint32_t family = 0;

    /**
     * Fixed pre-segment producers: ops before base() that remain the
     * program-order producer of some operand in *every* period
     * (loop-invariant values).  Sorted ascending.
     */
    std::vector<std::uint32_t> ancients;

    /** One past the last op of the last complete period. */
    std::size_t end() const { return base + period * count; }
};

/** All periodic segments of one trace, disjoint and ascending. */
struct TracePeriodicity
{
    std::vector<TraceSegment> segments;
    /** Total ops covered by segments (diagnostics / tests). */
    std::uint64_t coveredOps = 0;
};

/**
 * Analyze @p trace.  Deterministic, O(trace size); segments shorter
 * than two periods are not reported (with a single period there is
 * no boundary pair whose state could ever match).  Two-period
 * segments still matter: once their family's steady state was
 * confirmed in an earlier segment, the tracker skips their second
 * period after one match.
 */
TracePeriodicity detectPeriods(const TraceBody &trace);

/** Analyze the configuration-independent body of @p trace. */
TracePeriodicity detectPeriods(const DecodedTrace &trace);

} // namespace mfusim

#endif // MFUSIM_DATAFLOW_PERIOD_DETECTOR_HH
