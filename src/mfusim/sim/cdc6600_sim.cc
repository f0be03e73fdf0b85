/**
 * @file
 * CDC 6600-style issue implementation.
 */

#include "mfusim/sim/cdc6600_sim.hh"

#include <algorithm>
#include <array>

#include <set>
#include <vector>

#include "mfusim/core/error.hh"
#include "mfusim/funits/fu_pool.hh"
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
    // (dispatch waits at the units), so the single result bus uses
    // an unbounded reservation set rather than a sliding window.
    std::set<ClockCycle> bus_reserved;

    ClockCycle issue_cursor = 0;
    ClockCycle end = 0;

    const std::size_t n = trace.size();

    // Armed predictor (zero window): correctly predicted branches are
    // free; mispredicted ones block like the paper's.
    const bool spec = cfg_.predictor.armed();
    std::vector<std::uint8_t> predOk;
    if (spec)
        predOk = precomputePredictions(trace, cfg_.predictor);

    // Steady-state fast path (see sim/steady_state.hh; off under
    // audit).  Boundary state: live register ready times, waiting
    // stations, the pool, and the outstanding bus reservations, all
    // rebased to the issue cursor.  Predictors with history
    // mispredict aperiodically and keep the plain path.
    const bool steady = steadyStateEnabled() && !kObs &&
        cfg_.predictor.isStatic();
    SteadyStateTracker tracker(steady ? &trace.periodicity() : nullptr,
                               n);
    std::size_t boundary = tracker.nextBoundary();
    const std::vector<RegId> &written = trace.writtenRegs();

    for (std::size_t i = 0; i < n; ++i) {
        if (i == boundary) {
            if (tracker.beginObserve(i)) {
                const ClockCycle base = issue_cursor;
                // Reservations at or before the cursor can never
                // conflict again (future probes are later): prune,
                // which also bounds the set's growth.
                bus_reserved.erase(bus_reserved.begin(),
                                   bus_reserved.upper_bound(base));
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
                for (const ClockCycle slot : bus_reserved)
                    sig.push_back(slot - base);
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
                    std::set<ClockCycle> shifted;
                    for (const ClockCycle slot : bus_reserved)
                        shifted.insert(shifted.end(),
                                       slot + skip->delta);
                    bus_reserved.swap(shifted);
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
                const ClockCycle t = issue_cursor;
                if constexpr (kObs)
                    emitAudit(AuditPhase::kIssue, t, i);
                issue_cursor = t + 1;
                end = std::max(end, t + 1);
            } else {
                // The 6600 resolves branches in the unified exchange
                // pipeline; we keep the paper's uniform rule: wait
                // for the condition, then block for the branch time.
                const ClockCycle t =
                    std::max(issue_cursor, cond_ready);
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
        while (true) {
            dispatch = pool.earliestAccept(fu_class, dispatch);
            if (needs_bus) {
                // Walk the ordered reservations to the first free
                // completion cycle (exact next-event skip: nothing
                // is ever removed from the set, so the scan finds
                // the same cycle one-by-one probing would).
                ClockCycle slot = dispatch + latency;
                auto it = bus_reserved.lower_bound(slot);
                while (it != bus_reserved.end() && *it == slot) {
                    ++slot;
                    ++it;
                }
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
            bus_reserved.insert(ready);
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
