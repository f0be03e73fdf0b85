/**
 * @file
 * PipeTraceRecorder: one run's per-op pipeline schedule and its
 * stall samples, exported as Chrome/Perfetto trace-event JSON or an
 * ASCII pipeview.
 *
 * The recorder is the OpSchedule the Auditor checks (sim/audit.hh):
 * each op's phase cycles (issue / dispatch / complete, plus insert /
 * commit for the RUU, squash for mispredicted branches) and unit ids,
 * and the wrong-path events.  It adds every attributed stall sample,
 * nothing else, so an audited recorded run (runWithSinks()) stores
 * its schedule once.  Exporters then lay the schedule out on tracks:
 *
 *   - one track per issue slot (multi-issue machines tag issue
 *     events with their slot; single-issue machines use slot 0),
 *   - one track per functional-unit class showing [exec, complete)
 *     busy intervals,
 *   - one track per result bus / CDB showing completion slots,
 *   - one stall track with the attributed front-end waits, and
 *   - a counter track with the in-flight op count over time.
 *
 * Cycle N maps to timestamp N µs, so Perfetto's time axis reads
 * directly in cycles.
 */

#ifndef MFUSIM_OBS_PIPE_TRACE_HH
#define MFUSIM_OBS_PIPE_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "mfusim/core/decoded_trace.hh"
#include "mfusim/core/types.hh"
#include "mfusim/obs/obs_sink.hh"
#include "mfusim/sim/audit.hh"

namespace mfusim
{

/** A recorded per-op schedule plus its attributed stall samples. */
class PipeTraceRecorder : public OpSchedule
{
  public:
    using OpSchedule::OpSchedule;

    void onStall(const StallSample &sample) override;

    /**
     * The op's front-event cycle: insert for windowed machines,
     * otherwise issue.  kNoCycle if the op never entered the front.
     */
    ClockCycle front(std::size_t i) const;

    /**
     * The op's execution-start cycle: dispatch where the machine
     * distinguishes it, otherwise the front event.
     */
    ClockCycle exec(std::size_t i) const;

    const std::vector<StallSample> &stalls() const { return stalls_; }

  private:
    std::vector<StallSample> stalls_;
};

/**
 * Write the recorded schedule as Chrome trace-event JSON (the format
 * Perfetto, chrome://tracing and speedscope load).  @p trace supplies
 * mnemonics and FU classes for track assignment; @p label names the
 * process (conventionally "<sim> <config> <trace>").
 */
void writeChromeTrace(std::ostream &os,
                      const PipeTraceRecorder &recorder,
                      const DecodedTrace &trace,
                      const std::string &label);

/**
 * Write a compact ASCII pipeview: one row per op, one column per
 * cycle.  Markers: I issue/insert, D dispatch, C complete, R retire
 * (commit), '=' executing, '.' waiting in the front end / window.
 * Shows the first @p maxOps ops and at most @p maxCols cycle columns
 * (both clamped), noting any truncation.
 */
void writePipeview(std::ostream &os, const PipeTraceRecorder &recorder,
                   const DecodedTrace &trace, std::size_t maxOps = 48,
                   std::size_t maxCols = 120);

} // namespace mfusim

#endif // MFUSIM_OBS_PIPE_TRACE_HH
