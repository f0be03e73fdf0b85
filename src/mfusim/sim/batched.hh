/**
 * @file
 * Batched lockstep sweep kernel: one trace pass advances many
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
 * Lockstep is possible because the covered machines consume ops in
 * program order: SimpleSim and ScoreboardSim issue one op at a time,
 * and in-order MultiIssueSim's window boundaries and issue order are
 * timing-independent (a window is refilled only when drained, and a
 * squashing branch truncates it by trace structure alone).  The
 * single-issue lanes are the simulators' own Lane state advanced by
 * their own advance() — run() is the one-lane case — so only the
 * in-order multiple-issue machine has a kernel here.  It replaces the
 * scalar pass-rescan loop with its exact fixpoint: an op issues at
 * the least cycle >= its predecessor's issue cycle (plus one across
 * a window refill) that satisfies its dependence, branch-floor,
 * functional-unit and result-bus constraints — the same cycle the
 * scalar pass loop converges to, because its event hints are exact.
 *
 * The steady-state fast path composes per lane: each lane owns a
 * SteadyStateTracker and observes the same boundaries with the same
 * signature recipe as its scalar simulator, so it takes the same
 * skips.  A lane whose skip extrapolates past the current block
 * leaves it early; the blocks the skip crossed pass over the lane
 * with one cursor compare.
 *
 * Lanes that lockstep does not cover — out-of-order issue, the RUU
 * machines, vector traces, replicated units or an armed predictor
 * under multiple issue, audited runs (they need the instrumented
 * instantiation), structurally incompatible traces, and single-lane
 * batches — fall back to the scalar run() inside the same call, so
 * callers need no capability logic.  Results are bit-identical to the
 * scalar path in every covered and uncovered case.
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
    /** Lanes advanced by a lockstep kernel. */
    std::size_t lockstepLanes = 0;
    /** Lanes that fell back to the scalar path. */
    std::size_t scalarLanes = 0;
};

/**
 * Advance every lane over its trace and return the per-lane results.
 * Lanes are grouped by machine kind and structural trace family;
 * groups of two or more compatible lanes run a lockstep kernel, all
 * other lanes run their simulator's scalar path.  Exceptions from
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
 * split tells how much of it the kernels actually covered.
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
