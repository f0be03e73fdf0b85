/**
 * @file
 * Batched sweeps: many configuration lanes timed in one call.
 *
 * Every paper table sweeps one op stream across orthogonal machine
 * knobs (latencies, issue widths, bus kinds, stations, buffer sizes).
 * runBatch() takes the cells of one such sweep — "lanes", each a
 * simulator and the decoded trace it should time — and runs each
 * lane alone, in order, through its simulator's run().  A batched
 * result is therefore the scalar result by construction, for all six
 * machines, audited runs and steady-state skips alike, and errors are
 * the scalar path's too: a multiple-issue lane over a vector trace
 * throws the same SimError, and a tripped watchdog the same
 * diagnosis.  The golden fixtures (tests/golden/single_issue_cells.txt,
 * multi_issue_cells.txt) check the timing itself.
 *
 * Lanes once also shared a trace pass, advanced block by block;
 * timed on the paper's grids that was never faster than one lane at
 * a time (docs/MODEL.md, "Batched sweeps"), so runBatch() keeps only
 * the one path.
 */

#ifndef MFUSIM_SIM_BATCHED_HH
#define MFUSIM_SIM_BATCHED_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mfusim/core/decoded_trace.hh"
#include "mfusim/sim/simulator.hh"

namespace mfusim
{

/**
 * One cell of a batched sweep: a simulator and the decoded trace it
 * should time.  Both referents are borrowed and must outlive the
 * runBatch() call.
 */
struct BatchLane
{
    Simulator *sim = nullptr;
    const DecodedTrace *trace = nullptr;
};

/** What runBatch() did, for telemetry and tests. */
struct BatchOutcome
{
    /** Per-lane results, in lane order; each is the lane's run(). */
    std::vector<SimResult> results;
    /**
     * Always 0: every lane runs alone.  Kept because the benchmark
     * client (benchmark/mfubench.cc) still reads it.
     */
    std::size_t lockstepLanes = 0;
};

/**
 * Run every lane's simulator over its trace, in lane order, and
 * return the per-lane results.  Exceptions from any lane propagate
 * (the batch is abandoned, as a scalar sweep cell's would be).
 *
 * @throws ConfigError on a lane with a null simulator or trace.
 */
BatchOutcome runBatch(const std::vector<BatchLane> &lanes);

/**
 * Cumulative process-lifetime runBatch() telemetry, for the serve
 * daemon's /metrics endpoint (monotone counters).
 */
struct BatchTelemetry
{
    std::uint64_t batches = 0;      //!< runBatch() calls (>= 1 lane)
    std::uint64_t lanes = 0;        //!< total lanes submitted
};

BatchTelemetry batchTelemetry();

} // namespace mfusim

#endif // MFUSIM_SIM_BATCHED_HH
