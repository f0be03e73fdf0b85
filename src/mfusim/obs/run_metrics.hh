/**
 * @file
 * Turning one recorded run into a populated MetricsRegistry.
 *
 * populateRunMetrics() derives every standard metric from a
 * PipeTraceRecorder's schedule plus the SimResult, under a strict
 * per-cycle accounting model for the issue stage:
 *
 *     cycles.total = cycles.front_active
 *                  + sum over causes of cycles.stall.<cause>
 *                  + cycles.drain
 *
 * front_active counts the distinct cycles with at least one front
 * event (issue, or insert for windowed machines); the stall counters
 * sum the simulator's attributed StallSamples (which by construction
 * never overlap each other or a front-active cycle); drain is the
 * remainder — cycles where the front end had nothing left to do and
 * the machine was emptying its pipeline.  A negative remainder means
 * a simulator double-charged a wait and is reported as an Error, so
 * the identity is self-checking.  tools/check_obs_json.py re-verifies
 * it on every exported file, and tests/test_obs.cc asserts it for
 * all six simulators.
 */

#ifndef MFUSIM_OBS_RUN_METRICS_HH
#define MFUSIM_OBS_RUN_METRICS_HH

#include "mfusim/core/decoded_trace.hh"
#include "mfusim/obs/metrics.hh"
#include "mfusim/obs/pipe_trace.hh"
#include "mfusim/sim/simulator.hh"

namespace mfusim
{

/**
 * Populate @p metrics from one simulated run: per-cycle stall
 * attribution (the identity above), per-FU busy cycles and
 * utilization, result-bus completion pressure, in-flight / window
 * occupancy distributions and time series, steady-state telemetry,
 * and the issue rate.  Labels "sim" and "trace" are set from
 * @p sim and @p trace; callers add further labels (config, loop id)
 * as they see fit.
 */
void populateRunMetrics(MetricsRegistry &metrics,
                        const DecodedTrace &trace,
                        const PipeTraceRecorder &recorder,
                        const SimResult &result,
                        const Simulator &sim);

/**
 * Add each non-zero cause of @p stalls to its "cycles.stall.<cause>"
 * counter.  populateRunMetrics() folds its samples in through this,
 * and bench/stall_breakdown folds SimResult::stalls, so both name
 * the counters the same way.
 */
void addStallCounters(MetricsRegistry &metrics,
                      const StallCounts &stalls);

} // namespace mfusim

#endif // MFUSIM_OBS_RUN_METRICS_HH
