/**
 * @file
 * Batched lockstep sweep: one trace pass advances many
 * configuration lanes.
 *
 * Every paper table sweeps one op stream across orthogonal machine
 * knobs (latencies, issue widths, bus kinds), yet the scalar path
 * re-walks the same DecodedTrace once per cell.  runBatch() advances
 * B cells — "lanes" — over the trace in block lockstep: the trace is
 * walked in blocks of a few hundred ops, every lane runs a whole
 * block (hot cycle cursors in registers) before the next lane visits
 * it, and the block's structural fields are read from cache by lanes
 * 2..B.  Every lane applies its own timing rules to its own state
 * (per-lane FU busy times, bus reservation windows, register ready
 * times, completion arrays, cycle counters); lanes never read each
 * other's state, so any interleaving is bit-identical and the block
 * schedule is purely a locality choice.
 *
 * Lockstep needs no kernel of its own: every covered machine —
 * SimpleSim, ScoreboardSim and MultiIssueSim, in either issue order —
 * defines its whole timing state as a Lane and one advance() over
 * it, and run() is the one-lane case.  runBatch() only groups lanes
 * and calls advance() block by block, so a batched result is the
 * scalar result by construction; the golden fixtures
 * (tests/golden/single_issue_cells.txt, multi_issue_cells.txt) check
 * the timing itself.
 *
 * The steady-state fast path composes per lane: each lane owns a
 * SteadyStateTracker and takes the same skips as its scalar run.  A
 * lane whose skip extrapolates past the current block leaves it
 * early; the blocks the skip crossed pass over the lane with one
 * cursor compare.
 *
 * Lanes that lockstep does not cover — the RUU, CDC 6600 and
 * Tomasulo machines, audited runs (they need the instrumented
 * instantiation), structurally incompatible traces, and single-lane
 * groups — fall back to the scalar run() inside the same call, so
 * callers need no capability logic.  Errors are the scalar path's
 * too: a multiple-issue lane over a vector trace throws the same
 * SimError, and a tripped watchdog the same diagnosis.
 */

#ifndef MFUSIM_SIM_BATCHED_HH
#define MFUSIM_SIM_BATCHED_HH

#include <cstddef>
#include <vector>

#include "mfusim/core/decoded_trace.hh"
#include "mfusim/sim/simulator.hh"

namespace mfusim
{

/**
 * One cell of a batched sweep: a simulator and the decoded trace it
 * should time.  Lanes of one batch usually share the trace pointer
 * (organization axes); latency axes pass per-lane traces of the same
 * loop, which are structurally identical (same ops, registers and
 * dependence links) and verified as such before lockstep is used.
 * Both referents are borrowed and must outlive the runBatch() call.
 */
struct BatchLane
{
    Simulator *sim = nullptr;
    const DecodedTrace *trace = nullptr;
};

/** What runBatch() did, for telemetry and tests. */
struct BatchOutcome
{
    /** Per-lane results, in lane order; bit-identical to scalar. */
    std::vector<SimResult> results;
    /** Lanes advanced in block lockstep. */
    std::size_t lockstepLanes = 0;
    /** Lanes that fell back to the scalar path. */
    std::size_t scalarLanes = 0;
};

/**
 * Advance every lane over its trace and return the per-lane results.
 * Lanes are grouped by machine kind and structural trace family;
 * groups of two or more compatible lanes advance in block lockstep,
 * all other lanes run their simulator's scalar path.  Exceptions from
 * any lane propagate (the batch is abandoned, as a scalar sweep
 * cell's would be).
 */
BatchOutcome runBatch(const std::vector<BatchLane> &lanes);

/**
 * True when two decoded traces are structurally identical: same op
 * count and per-op opcodes, unit classes, flags, registers and
 * dependence links.  Latencies and occupancies may differ (that is
 * the latency sweep axis).  O(1) for views of one shared TraceBody
 * (every configuration of one TraceLibrary loop); other pairs are
 * compared field by field.
 */
bool structurallyIdentical(const DecodedTrace &a, const DecodedTrace &b);

/**
 * Cumulative process-lifetime runBatch() telemetry, for the serve
 * daemon's /metrics endpoint (monotone counters).  `lanes` is the
 * total batch size submitted across all calls; the lockstep/scalar
 * split tells how much of it lockstep actually covered.
 */
struct BatchTelemetry
{
    std::uint64_t batches = 0;      //!< runBatch() calls (>= 1 lane)
    std::uint64_t lanes = 0;        //!< total lanes submitted
    std::uint64_t lockstepLanes = 0;
    std::uint64_t scalarLanes = 0;
};

BatchTelemetry batchTelemetry();

} // namespace mfusim

#endif // MFUSIM_SIM_BATCHED_HH
