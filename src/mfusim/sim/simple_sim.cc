/**
 * @file
 * Simple Machine implementation.
 */

#include "mfusim/sim/simple_sim.hh"

#include "mfusim/sim/steady_state.hh"

namespace mfusim
{

SimResult
SimpleSim::run(const DecodedTrace &trace)
{
    return auditSink() ? runImpl<true>(trace) : runImpl<false>(trace);
}

template <bool kObs>
SimResult
SimpleSim::runImpl(const DecodedTrace &trace) const
{
    checkDecodedConfig(trace, cfg_);
    // Instruction i enters execution when instruction i-1 leaves it;
    // the two-stage pipeline otherwise always has the next
    // instruction decoded and waiting, so execution is back to back:
    // total time is simply the sum of execution latencies (every
    // latency is at least 1 cycle, so the issue stage never starves
    // the execute stage).
    const std::size_t n = trace.size();
    SteadyStateTracker tracker(steadyPeriods(trace), n);
    std::size_t boundary = tracker.nextBoundary();
    ClockCycle end = 0;     // the execute stage frees

    for (std::size_t i = 0; i < n; ++i) {
        // Steady state: the machine's whole timing state is `end`,
        // so every boundary of a periodic segment matches trivially
        // and the per-period cycle delta (the body's latency sum)
        // extrapolates after two confirmed periods.
        if (i == boundary) {
            if (tracker.beginObserve(i)) {
                tracker.sigBuffer();    // no live state beyond `end`
                if (const auto skip =
                        tracker.finishObserve(end, nullptr, 0)) {
                    i += skip->ops;
                    end += skip->delta;
                }
            }
            boundary = tracker.nextBoundary();
        }
        if constexpr (kObs) {
            emitAudit(AuditPhase::kIssue, end, i);
            // Every cycle this op holds the execute stage beyond its
            // issue cycle is a serial-execution stall for the stream.
            emitStall(StallCause::kSerial, end + 1,
                      ClockCycle(trace.latency(i)) +
                          trace.occupancy(i) - 2,
                      i);
        }
        end += trace.latency(i);
        end += trace.occupancy(i) - 1;      // one element per cycle
        if constexpr (kObs)
            emitAudit(AuditPhase::kComplete, end, i);
    }

    SimResult result;
    result.instructions = n;
    result.cycles = end;
    result.steadyOpsSkipped = tracker.opsSkipped();
    return result;
}

AuditRules
SimpleSim::auditRules() const
{
    AuditRules rules;
    rules.rawAt = AuditRules::RawAt::kIssue;
    rules.inOrderFront = true;
    rules.strictSingleFront = true;
    rules.serialExecution = true;
    rules.checkBranchFloor = true;
    rules.wawOrdered = true;
    rules.completionConsistent = true;
    return rules;
}

} // namespace mfusim
