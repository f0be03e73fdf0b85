/**
 * @file
 * Single-issue scoreboard machine implementation.
 */

#include "mfusim/sim/scoreboard_sim.hh"

#include <algorithm>
#include <cassert>

#include "mfusim/core/error.hh"

namespace mfusim
{

ScoreboardConfig
ScoreboardConfig::serialMemory()
{
    return { FuDiscipline::kNonSegmented, MemDiscipline::kSerial, true };
}

ScoreboardConfig
ScoreboardConfig::nonSegmented()
{
    return { FuDiscipline::kNonSegmented, MemDiscipline::kInterleaved,
             true };
}

ScoreboardConfig
ScoreboardConfig::crayLike()
{
    return { FuDiscipline::kSegmented, MemDiscipline::kInterleaved,
             true };
}

ScoreboardSim::ScoreboardSim(const ScoreboardConfig &org,
                             const MachineConfig &cfg)
    : org_(org), cfg_(cfg)
{
    if (org_.fuCopies < 1)
        throw ConfigError("ScoreboardSim: fuCopies must be >= 1");
    if (org_.memPorts < 1)
        throw ConfigError("ScoreboardSim: memPorts must be >= 1");
    cfg_.predictor.requireNoWrongPath("ScoreboardSim");
}

std::string
ScoreboardSim::name() const
{
    if (org_.memDiscipline == MemDiscipline::kSerial)
        return "SerialMemory";
    if (org_.fuDiscipline == FuDiscipline::kNonSegmented)
        return "NonSegmented";
    return "CRAY-like";
}

std::string
ScoreboardSim::cacheKey() const
{
    return std::string("scoreboard|fu=") +
        (org_.fuDiscipline == FuDiscipline::kSegmented ? "seg"
                                                       : "nonseg") +
        "|mem=" +
        (org_.memDiscipline == MemDiscipline::kInterleaved
             ? "ilv"
             : "serial") +
        "|rbus=" + (org_.modelResultBus ? "1" : "0") +
        "|chain=" + (org_.vectorChaining ? "1" : "0") +
        "|fuc=" + std::to_string(org_.fuCopies) +
        "|mp=" + std::to_string(org_.memPorts) +
        (cfg_.predictor.armed() ? "|pred=" + cfg_.predictor.key()
                                : std::string());
}

ScoreboardSim::Lane::Lane(const ScoreboardSim &sim,
                          const DecodedTrace &t)
    : trace(&t),
      pool({ sim.org_.fuDiscipline, sim.org_.memDiscipline,
             sim.org_.fuCopies, sim.org_.memPorts },
           sim.cfg_),
      tracker(steadyStateEnabled() && sim.auditSink() == nullptr &&
                      sim.cfg_.predictor.isStatic()
                  ? &t.periodicity()
                  : nullptr,
              t.size()),
      boundary(tracker.nextBoundary())
{
    checkDecodedConfig(t, sim.cfg_);
    // Armed predictor (zero window): a correctly predicted branch is
    // free; a mispredicted one waits and blocks like the paper's.
    if (sim.cfg_.predictor.armed())
        predOk = precomputePredictions(t, sim.cfg_.predictor);
}

SimResult
ScoreboardSim::result(const Lane &lane)
{
    SimResult result;
    result.instructions = lane.trace->size();
    result.hasStalls = true;
    result.cycles = lane.end;
    result.stalls = lane.stalls;
    result.steadyOpsSkipped = lane.tracker.opsSkipped();
    return result;
}

SimResult
ScoreboardSim::run(const DecodedTrace &trace)
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
ScoreboardSim::advance(Lane &lane, std::size_t stop) const
{
    const DecodedTrace &trace = *lane.trace;
    std::array<ClockCycle, kNumRegs> &regReady = lane.regReady;
    std::array<ClockCycle, kNumRegs> &chainReady = lane.chainReady;
    FuPool &pool = lane.pool;
    CycleReservations &bus = lane.bus;
    SteadyStateTracker &tracker = lane.tracker;
    const bool spec = !lane.predOk.empty();
    const std::uint8_t *const predOk = lane.predOk.data();
    // Only registers the trace writes can ever hold a live ready
    // time, so signatures scan this cached list instead of all
    // kNumRegs (or all ops) per run.
    const std::vector<RegId> &written = trace.writtenRegs();
    const bool has_vector = trace.hasVector();

    // The hot scalars live in locals for the whole call (registers
    // across a batched block) and are stored back once at the end.
    std::size_t i = lane.cursor;
    std::size_t boundary = lane.boundary;
    ClockCycle issue_cursor = lane.issueCursor;
    ClockCycle end = lane.end;
    StallBreakdown stalls = lane.stalls;

    for (; i < stop; ++i) {
        // Steady state: the machine's timing state at an iteration
        // boundary is the live part of the register ready times,
        // the pool and bus timelines and the end watermark, all
        // rebased to the issue cursor; once it repeats across
        // boundaries, the remaining iterations shift by a constant
        // delta.
        if (i == boundary) {
            if (tracker.beginObserve(i)) {
                const ClockCycle base = issue_cursor;
                auto &sig = tracker.sigBuffer();
                for (const RegId r : written) {
                    if (regReady[r] > base) {
                        sig.push_back(r);
                        sig.push_back(regReady[r] - base);
                    }
                }
                sig.push_back(sig.size());  // section delimiter
                if (has_vector) {
                    for (const RegId r : written) {
                        if (chainReady[r] > base) {
                            sig.push_back(r);
                            sig.push_back(chainReady[r] - base);
                        }
                    }
                    sig.push_back(sig.size());
                }
                pool.appendSignature(base, sig);
                bus.advanceTo(base);
                sig.push_back(bus.bits());
                sig.push_back(end - base);  // end >= cursor: exact
                const std::uint64_t counters[5] = {
                    stalls.raw, stalls.waw, stalls.structural,
                    stalls.resultBus, stalls.branch
                };
                if (const auto skip =
                        tracker.finishObserve(base, counters, 5)) {
                    i += skip->ops;
                    issue_cursor += skip->delta;
                    end += skip->delta;
                    // Live times shift with the clock; stale times
                    // (<= base) stay stale relative to the shifted
                    // cursor, so the blanket shift is exact.
                    for (ClockCycle &r : regReady)
                        r += skip->delta;
                    for (ClockCycle &r : chainReady)
                        r += skip->delta;
                    pool.shiftTime(skip->delta);
                    bus.shiftTime(skip->delta);
                    stalls.raw += skip->counters[0];
                    stalls.waw += skip->counters[1];
                    stalls.structural += skip->counters[2];
                    stalls.resultBus += skip->counters[3];
                    stalls.branch += skip->counters[4];
                }
            }
            boundary = tracker.nextBoundary();
        }
        const unsigned latency = trace.latency(i);
        const RegId srcA = trace.srcA(i);
        const RegId srcB = trace.srcB(i);
        const RegId dst = trace.dst(i);

        if (trace.isBranch(i)) {
            const ClockCycle cond_ready =
                srcA != kNoReg ? regReady[srcA] : 0;
            if (spec && predOk[i]) {
                // Correctly predicted: the branch spends one issue
                // slot and never gates the stream.
                const ClockCycle t = issue_cursor;
                if constexpr (kObs)
                    emitAudit(AuditPhase::kIssue, t, i);
                issue_cursor = t + 1;
                end = std::max(end, t + 1);
            } else {
                // Blocking (and mispredicted, which redirects once
                // the outcome is known): wait for the condition,
                // then hold the issue stage for the branch time.
                const ClockCycle t =
                    std::max(issue_cursor, cond_ready);
                stalls.branch +=
                    (t - issue_cursor) + (cfg_.branchTime - 1);
                if constexpr (kObs) {
                    emitAudit(AuditPhase::kIssue, t, i);
                    if (spec)
                        emitAudit(AuditPhase::kSquash, t, i);
                    emitStall(StallCause::kBranch, issue_cursor,
                              t - issue_cursor, i);
                    emitStall(StallCause::kBranch, t + 1,
                              cfg_.branchTime - 1, i);
                }
                issue_cursor = t + cfg_.branchTime;
                end = std::max(end, t + cfg_.branchTime);
            }
            continue;
        }

        const bool vector_op = trace.isVector(i);
        const unsigned occupancy = trace.occupancy(i);
        const FuClass fu = trace.fu(i);

        // Earliest cycle with all register hazards cleared,
        // attributing waits to the binding hazard in check order.
        // A chained vector consumer waits only for the first element
        // of a vector source.
        const bool chain = vector_op && org_.vectorChaining;
        ClockCycle t = issue_cursor;
        for (const RegId src : { srcA, srcB }) {
            if (src == kNoReg)
                continue;
            const bool v_src = classOf(src) == RegClass::V;
            t = std::max(t, chain && v_src ? chainReady[src]
                                           : regReady[src]);
        }
        stalls.raw += t - issue_cursor;
        if constexpr (kObs)
            emitStall(StallCause::kRaw, issue_cursor,
                      t - issue_cursor, i);
        ClockCycle mark = t;
        if (dst != kNoReg)
            t = std::max(t, regReady[dst]);         // WAW reservation
        stalls.waw += t - mark;
        if constexpr (kObs)
            emitStall(StallCause::kWaw, mark, t - mark, i);

        // Structural hazards: functional unit, then result bus.
        // Vector results stream over the vector register write
        // paths, not the scalar result bus.
        const bool needs_bus = org_.modelResultBus &&
            trace.producesResult(i) && !vector_op;
        while (true) {
            const ClockCycle at_fu = pool.earliestAccept(fu, t);
            stalls.structural += at_fu - t;
            if constexpr (kObs)
                emitStall(StallCause::kFuBusy, t, at_fu - t, i);
            t = at_fu;
            if (needs_bus) {
                bus.advanceTo(t);
                // Jump straight to the first free completion slot:
                // no new reservations can appear while this op
                // waits, so the next-event scan is exact, and every
                // skipped cycle is a result-bus stall exactly as if
                // stepped one by one.  (The 64-cycle bus window
                // always has a free slot, so this terminates.)
                const ClockCycle slot = bus.nextFreeSlot(t + latency);
                if (slot != t + latency) {
                    stalls.resultBus += slot - (t + latency);
                    if constexpr (kObs)
                        emitStall(StallCause::kBusBusy, t,
                                  slot - (t + latency), i);
                    t = slot - latency;
                    continue;   // recheck the unit at the later cycle
                }
            }
            break;
        }

        // Issue.
        const ClockCycle ready = pool.accept(fu, t, latency, occupancy);
        if constexpr (kObs) {
            emitAudit(AuditPhase::kIssue, t, i);
            emitAudit(AuditPhase::kComplete, ready, i,
                      needs_bus ? 0 : -1);
        }
        if (needs_bus) {
            const bool ok = bus.tryReserve(ready);
            assert(ok && "1-Bus slot taken");
            (void)ok;
        }
        if (dst != kNoReg) {
            regReady[dst] = ready;
            // First element of a vector result streams out after
            // one unit latency.
            chainReady[dst] =
                occupancy > 1 ? t + latency + 1 : ready;
        }

        issue_cursor = t + 1;
        end = std::max(end, ready);
    }

    lane.cursor = i;
    lane.boundary = boundary;
    lane.issueCursor = issue_cursor;
    lane.end = end;
    lane.stalls = stalls;
}

// runBatch() advances lanes through the uninstrumented instantiation.
template void ScoreboardSim::advance<false>(Lane &, std::size_t) const;

AuditRules
ScoreboardSim::auditRules() const
{
    AuditRules rules;
    rules.rawAt = AuditRules::RawAt::kIssue;
    rules.inOrderFront = true;
    rules.strictSingleFront = true;
    rules.checkBranchFloor = true;
    rules.wawOrdered = true;
    rules.completionConsistent = true;
    rules.vectorChaining = org_.vectorChaining;
    rules.predictor = cfg_.predictor;
    rules.busCount = org_.modelResultBus ? 1 : 0;
    rules.busKind = BusKind::kSingle;
    rules.checkFuCaps = true;
    rules.fuDiscipline = org_.fuDiscipline;
    rules.memDiscipline = org_.memDiscipline;
    rules.fuCopies = org_.fuCopies;
    rules.memPorts = org_.memPorts;
    return rules;
}

} // namespace mfusim
