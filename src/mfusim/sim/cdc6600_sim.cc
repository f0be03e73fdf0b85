/**
 * @file
 * CDC 6600-style issue implementation.
 */

#include "mfusim/sim/cdc6600_sim.hh"

#include <algorithm>
#include <array>
#include <vector>

#include "mfusim/core/error.hh"
#include "mfusim/funits/fu_pool.hh"
#include "mfusim/funits/result_bus.hh"
#include "mfusim/sim/steady_state.hh"

namespace mfusim
{

SimResult
Cdc6600Sim::run(const DecodedTrace &trace)
{
    return auditSink() ? runImpl<true>(trace) : runImpl<false>(trace);
}

template <bool kObs>
SimResult
Cdc6600Sim::runImpl(const DecodedTrace &trace)
{
    checkDecodedConfig(trace, cfg_);
    SimResult result;
    result.instructions = trace.size();

    if (trace.hasVector()) {
        throw SimError(
            "Cdc6600Sim: vector instructions are not supported");
    }

    // Completion time of the current value of each register.
    std::array<ClockCycle, kNumRegs> regReady{};
    // Time each unit's single waiting station frees (the parked
    // instruction entered the execution pipeline).
    std::array<ClockCycle, kNumFuClasses> stationFree{};
    FuPool pool({ FuDiscipline::kSegmented,
                  MemDiscipline::kInterleaved },
                cfg_);
    // Completion times can regress between successive instructions
    // (dispatch waits at the units), so the single result bus is a
    // sparse timeline rather than a sliding window.
    SparseReservations bus;

    ClockCycle issue_cursor = 0;
    ClockCycle end = 0;

    const std::size_t n = trace.size();
    const std::vector<std::uint8_t> predOk = predictionBytes(trace);

    // Steady-state fast path (see sim/steady_state.hh).  Boundary
    // state: live register ready times, waiting stations, the pool,
    // and the outstanding bus reservations, all rebased to the issue
    // cursor.
    SteadyStateTracker tracker(steadyPeriods(trace), n);
    std::size_t boundary = tracker.nextBoundary();
    const std::vector<RegId> &written = trace.writtenRegs();

    for (std::size_t i = 0; i < n; ++i) {
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
                for (const ClockCycle free : stationFree)
                    sig.push_back(free > base ? free - base : 0);
                pool.appendSignature(base, sig);
                bus.appendSignature(base, sig);
                sig.push_back(end - base);  // end >= cursor: exact
                if (const auto skip =
                        tracker.finishObserve(base, nullptr, 0)) {
                    i += skip->ops;
                    issue_cursor += skip->delta;
                    end += skip->delta;
                    for (ClockCycle &r : regReady)
                        r += skip->delta;
                    for (ClockCycle &s : stationFree)
                        s += skip->delta;
                    pool.shiftTime(skip->delta);
                    bus.shiftTime(skip->delta);
                }
            }
            boundary = tracker.nextBoundary();
        }
        const unsigned latency = trace.latency(i);
        const RegId srcA = trace.srcA(i);
        const RegId srcB = trace.srcB(i);
        const RegId dst = trace.dst(i);

        if (trace.isBranch(i)) {
            // The 6600 resolves branches in the unified exchange
            // pipeline; we keep the paper's uniform rule.
            singleIssueBranch<kObs>(i,
                                    srcA != kNoReg ? regReady[srcA] : 0,
                                    predOk, cfg_.branchTime,
                                    issue_cursor, end);
            continue;
        }

        const FuClass fu_class = trace.fu(i);
        const unsigned fu = unsigned(fu_class);
        const bool is_transfer = trace.isTransfer(i);

        // Issue: blocks on WAW and on an occupied waiting station,
        // but NOT on RAW.
        ClockCycle t = issue_cursor;
        if (dst != kNoReg)
            t = std::max(t, regReady[dst]);             // WAW
        if constexpr (kObs)
            emitStall(StallCause::kWaw, issue_cursor,
                      t - issue_cursor, i);
        const ClockCycle waw_mark = t;
        if (!is_transfer)
            t = std::max(t, stationFree[fu]);           // station busy
        if constexpr (kObs)
            emitStall(StallCause::kFuBusy, waw_mark, t - waw_mark, i);

        // Dispatch: the parked instruction enters its (segmented)
        // unit once its operands exist and the unit can accept.
        ClockCycle dispatch = t;
        if (srcA != kNoReg)
            dispatch = std::max(dispatch, regReady[srcA]);
        if (srcB != kNoReg)
            dispatch = std::max(dispatch, regReady[srcB]);

        const bool needs_bus =
            org_.modelResultBus && trace.producesResult(i);
        if (needs_bus)
            bus.advanceTo(t);   // every later probe is past t
        while (true) {
            dispatch = pool.earliestAccept(fu_class, dispatch);
            if (needs_bus) {
                // Jump to the first free completion cycle: the exact
                // next-event skip, as no reservation is cancelled.
                const ClockCycle slot =
                    bus.nextFreeSlot(dispatch + latency);
                if (slot != dispatch + latency) {
                    dispatch = slot - latency;
                    continue;   // recheck the unit at the later cycle
                }
            }
            break;
        }

        const ClockCycle ready = pool.accept(fu_class, dispatch,
                                             latency);
        if constexpr (kObs) {
            emitAudit(AuditPhase::kIssue, t, i);
            emitAudit(AuditPhase::kDispatch, dispatch, i);
            emitAudit(AuditPhase::kComplete, ready, i,
                      needs_bus ? 0 : -1);
        }
        if (needs_bus)
            bus.reserve(ready);
        if (dst != kNoReg)
            regReady[dst] = ready;
        if (!is_transfer)
            stationFree[fu] = dispatch + 1;

        issue_cursor = t + 1;
        end = std::max(end, ready);
    }

    result.cycles = end;
    result.steadyOpsSkipped = tracker.opsSkipped();
    return result;
}

AuditRules
Cdc6600Sim::auditRules() const
{
    AuditRules rules;
    rules.rawAt = AuditRules::RawAt::kDispatch;
    rules.execPhase = AuditPhase::kDispatch;
    rules.inOrderFront = true;
    rules.strictSingleFront = true;
    rules.checkBranchFloor = true;
    rules.wawOrdered = true;
    rules.completionConsistent = true;
    rules.predictor = cfg_.predictor;
    rules.busCount = org_.modelResultBus ? 1 : 0;
    rules.busKind = BusKind::kSingle;
    rules.checkFuCaps = true;
    rules.waitingStations = true;
    return rules;
}

} // namespace mfusim
