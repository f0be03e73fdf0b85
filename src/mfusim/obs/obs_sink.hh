/**
 * @file
 * The stall taxonomy: why an issue stage lost cycles.
 *
 * The event stream of AuditSink (sim/audit.hh) carries the
 * *schedule* — one cycle-stamped event per pipeline phase per op.
 * That is enough to re-derive legality but not to explain a rate:
 * when the issue stage sat idle, only the simulator knows which
 * hazard was binding at that moment.  So every simulator, at the
 * exact points where it resolves a wait, also hands the attached
 * sink a StallSample (AuditSink::onStall): the cycles lost and the
 * cause (the binding hazard in check order).  A sink that does not
 * explain rates ignores them; PipeTraceRecorder keeps them.
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
 * sample when no sink is attached.  Attaching any sink disables
 * the steady-state fast path, so an instrumented run is always
 * cycle-exact (and its scalar counters are bit-identical to the
 * extrapolated fast-path run — asserted in tests).
 *
 * This header includes nothing from sim/, so sim/audit.hh can
 * include it.
 */

#ifndef MFUSIM_OBS_OBS_SINK_HH
#define MFUSIM_OBS_OBS_SINK_HH

#include <array>
#include <cstdint>

#include "mfusim/core/types.hh"

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

} // namespace mfusim

#endif // MFUSIM_OBS_OBS_SINK_HH
