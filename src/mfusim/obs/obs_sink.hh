/**
 * @file
 * Observability extension of the SimAudit event stream.
 *
 * The AuditSink protocol carries the *schedule* — one cycle-stamped
 * event per pipeline phase per op.  That is enough to re-derive
 * legality (sim/audit.hh) but not to explain a rate: when the issue
 * stage sat idle, only the simulator knows which hazard was binding
 * at that moment.  An ObsSink therefore extends AuditSink with
 * StallSample callbacks: every simulator, at the exact points where
 * it resolves a wait, reports the cycles lost and the cause (the
 * binding hazard in check order).
 *
 * StallCause is mfusim's one stall taxonomy.  SimResult::stalls is a
 * StallCounts indexed by it; the scoreboard family adds to the same
 * counters at the same points where it emits samples, on every run,
 * so its summary equals the sum of its samples.  The other machines
 * report stalls only as samples.  The causes mirror the paper's
 * conflict classes:
 *
 *   | cause        | paper conflict class                          |
 *   |--------------|-----------------------------------------------|
 *   | kRaw         | data-dependency conflict (operand not ready)  |
 *   | kWaw         | register reservation (WAW-serial completion)  |
 *   | kFuBusy      | functional-unit conflict                      |
 *   | kBusBusy     | result-bus / CDB completion-slot conflict     |
 *   | kBranch      | control: condition wait + branch issue floor  |
 *   | kBufferDrain | issue buffer / RUU window / station pool full |
 *   | kSerial      | Simple machine's one-op-at-a-time execution   |
 *
 * Emission cost matches emitAudit: one predictable null test per
 * sample when no ObsSink is attached.  Attaching any sink disables
 * the steady-state fast path, so an instrumented run is always
 * cycle-exact (and its scalar counters are bit-identical to the
 * extrapolated fast-path run — asserted in tests).
 */

#ifndef MFUSIM_OBS_OBS_SINK_HH
#define MFUSIM_OBS_OBS_SINK_HH

#include <array>
#include <cstdint>
#include <vector>

#include "mfusim/core/types.hh"
#include "mfusim/sim/audit.hh"

namespace mfusim
{

/** Why an issue stage lost cycles (see the file comment). */
enum class StallCause : std::uint8_t
{
    kRaw,           //!< source operand not yet available
    kWaw,           //!< destination register still reserved
    kFuBusy,        //!< functional unit / memory port busy
    kBusBusy,       //!< no free result-bus / CDB completion slot
    kBranch,        //!< branch condition wait + branch issue floor
    kBufferDrain,   //!< issue buffer / RUU window / stations full
    kSerial,        //!< serial execution (Simple machine)
    kMispredict,    //!< front end fetching the wrong path
    kSquashDrain,   //!< post-squash refetch (branchTime redirect)
    kOther,         //!< unclassifiable (should not occur)
    kNumCauses
};

constexpr unsigned kNumStallCauses =
    static_cast<unsigned>(StallCause::kNumCauses);

/** Stall cycles per cause, indexed by StallCause. */
using StallCounts = std::array<std::uint64_t, kNumStallCauses>;

/** Stable metric-name spelling of a cause, e.g. "fu_busy". */
inline const char *
stallCauseName(StallCause cause)
{
    switch (cause) {
      case StallCause::kRaw:         return "raw";
      case StallCause::kWaw:         return "waw";
      case StallCause::kFuBusy:      return "fu_busy";
      case StallCause::kBusBusy:     return "bus_busy";
      case StallCause::kBranch:      return "branch";
      case StallCause::kBufferDrain: return "buffer_drain";
      case StallCause::kSerial:      return "serial";
      case StallCause::kMispredict:  return "mispredict";
      case StallCause::kSquashDrain: return "squash_drain";
      default:                       return "other";
    }
}

/**
 * One attributed front-end stall: the issue stage lost @p cycles
 * consecutive cycles starting at @p from because op @p op was blocked
 * by @p cause.  Samples from one run never overlap each other or an
 * issue cycle, so their lengths sum into an exclusive per-cycle
 * accounting (see obs/run_metrics.hh).
 */
struct StallSample
{
    ClockCycle from;        //!< first stalled cycle
    ClockCycle cycles;      //!< consecutive cycles lost (>= 1)
    std::uint64_t op;       //!< trace index of the blocked op
    StallCause cause;
};

/** An AuditSink that also receives stall attribution samples. */
class ObsSink : public AuditSink
{
  public:
    virtual void onStall(const StallSample &sample) { (void)sample; }
};

/**
 * Fan a simulator's event stream out to several sinks (e.g. an
 * Auditor and a PipeTraceRecorder in the same run).  Stall samples
 * reach only the children that are ObsSinks.  The caller owns the
 * children and must keep them alive across the run.
 */
class FanoutSink : public ObsSink
{
  public:
    void
    add(AuditSink *sink)
    {
        if (!sink)
            return;
        sinks_.push_back(sink);
        if (auto *obs = dynamic_cast<ObsSink *>(sink))
            obsSinks_.push_back(obs);
    }

    void
    onEvent(const AuditEvent &event) override
    {
        for (AuditSink *sink : sinks_)
            sink->onEvent(event);
    }

    void
    onStall(const StallSample &sample) override
    {
        for (ObsSink *sink : obsSinks_)
            sink->onStall(sample);
    }

  private:
    std::vector<AuditSink *> sinks_;
    std::vector<ObsSink *> obsSinks_;
};

} // namespace mfusim

#endif // MFUSIM_OBS_OBS_SINK_HH
