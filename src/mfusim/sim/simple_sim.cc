/**
 * @file
 * Simple Machine implementation.
 */

#include "mfusim/sim/simple_sim.hh"

namespace mfusim
{

SimpleSim::Lane::Lane(const SimpleSim &sim, const DecodedTrace &t)
    : trace(&t),
      tracker(steadyStateEnabled() && sim.auditSink() == nullptr
                  ? &t.periodicity()
                  : nullptr,
              t.size()),
      boundary(tracker.nextBoundary())
{
    checkDecodedConfig(t, sim.cfg_);
}

SimResult
SimpleSim::result(const Lane &lane)
{
    SimResult result;
    result.instructions = lane.trace->size();
    result.cycles = lane.end;
    result.steadyOpsSkipped = lane.tracker.opsSkipped();
    return result;
}

SimResult
SimpleSim::run(const DecodedTrace &trace)
{
    Lane lane(*this, trace);
    if (auditSink())
        advance<true>(lane, trace.size());
    else
        advance<false>(lane, trace.size());
    return result(lane);
}

template <bool kObs>
void
SimpleSim::advance(Lane &lane, std::size_t stop) const
{
    // Instruction i enters execution when instruction i-1 leaves it;
    // the two-stage pipeline otherwise always has the next
    // instruction decoded and waiting, so execution is back to back:
    // total time is simply the sum of execution latencies (every
    // latency is at least 1 cycle, so the issue stage never starves
    // the execute stage).
    const DecodedTrace &trace = *lane.trace;
    SteadyStateTracker &tracker = lane.tracker;
    std::size_t i = lane.cursor;
    std::size_t boundary = lane.boundary;
    ClockCycle end = lane.end;

    for (; i < stop; ++i) {
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

    lane.cursor = i;
    lane.boundary = boundary;
    lane.end = end;
}

// runBatch() advances lanes through the uninstrumented instantiation.
template void SimpleSim::advance<false>(Lane &, std::size_t) const;

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
