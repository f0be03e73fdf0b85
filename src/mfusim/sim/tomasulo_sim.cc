/**
 * @file
 * Tomasulo machine implementation.
 *
 * The simulation is event driven (no cycle loop): instructions are
 * processed in program order, and every timing constraint resolves
 * to a max() over previously computed completion times plus
 * first-free-slot searches in sparse reservation timelines.
 */

#include "mfusim/sim/tomasulo_sim.hh"

#include <algorithm>
#include <array>
#include <limits>
#include <vector>

#include "mfusim/core/error.hh"
#include "mfusim/funits/result_bus.hh"
#include "mfusim/sim/steady_state.hh"

namespace mfusim
{

TomasuloSim::TomasuloSim(const TomasuloConfig &org,
                         const MachineConfig &cfg)
    : org_(org), cfg_(cfg)
{
    if (org_.stationsPerFu < 1)
        throw ConfigError("TomasuloSim: stationsPerFu must be >= 1");
    if (org_.cdbCount < 1)
        throw ConfigError("TomasuloSim: cdbCount must be >= 1");
    cfg_.predictor.requireNoWrongPath("TomasuloSim");
}

std::string
TomasuloSim::name() const
{
    return "Tomasulo(rs=" + std::to_string(org_.stationsPerFu) +
        ", cdb=" + std::to_string(org_.cdbCount) + ")";
}

std::string
TomasuloSim::cacheKey() const
{
    return "tomasulo|rs=" + std::to_string(org_.stationsPerFu) +
        "|cdb=" + std::to_string(org_.cdbCount) +
        (cfg_.predictor.armed() ? "|pred=" + cfg_.predictor.key()
                                : std::string());
}

SimResult
TomasuloSim::run(const DecodedTrace &trace)
{
    return auditSink() ? runImpl<true>(trace) : runImpl<false>(trace);
}

template <bool kObs>
SimResult
TomasuloSim::runImpl(const DecodedTrace &trace)
{
    checkDecodedConfig(trace, cfg_);
    SimResult result;
    result.instructions = trace.size();
    if (trace.empty())
        return result;

    const std::size_t n = trace.size();

    if (trace.hasVector()) {
        throw SimError(
            "TomasuloSim: vector instructions are not supported");
    }

    // Renaming: value completion time per architectural register
    // (tags resolve to the last writer in program order; since we
    // process in program order, a simple per-register completion
    // time is exactly tag semantics).
    std::array<ClockCycle, kNumRegs> value_ready{};

    // Station occupancy per FU class: the broadcast (completion)
    // times of the live stations, ascending.
    std::array<std::vector<ClockCycle>, kNumFuClasses> stations;

    // Per-FU pipeline accept slots (the memory port's included) and
    // CDB slots (out-of-order arrivals -> sparse timelines).
    std::array<SparseReservations, kNumFuClasses> fu_slots;
    std::vector<SparseReservations> cdb(org_.cdbCount);

    ClockCycle issue_cursor = 0;
    ClockCycle end = 0;
    const std::vector<std::uint8_t> predOk = predictionBytes(trace);

    // Steady-state fast path.  Boundary state: live register values,
    // station broadcast times, and the accept / CDB reservations
    // pruned to the future, rebased to the issue cursor.
    SteadyStateTracker tracker(steadyPeriods(trace), n);
    std::size_t boundary = tracker.nextBoundary();
    const std::vector<RegId> &written = trace.writtenRegs();

    for (std::size_t i = 0; i < n; ++i) {
        if (i == boundary) {
            if (tracker.beginObserve(i)) {
                const ClockCycle base = issue_cursor;
                auto &sig = tracker.sigBuffer();
                for (const RegId r : written) {
                    if (value_ready[r] > base) {
                        sig.push_back(r);
                        sig.push_back(value_ready[r] - base);
                    }
                }
                sig.push_back(sig.size());  // section delimiter
                for (const auto &pool : stations) {
                    // Past broadcasts are popped lazily at issue.
                    const auto live = std::upper_bound(
                        pool.begin(), pool.end(), base);
                    sig.push_back(pool.end() - live);
                    for (auto it = live; it != pool.end(); ++it)
                        sig.push_back(*it - base);
                }
                for (auto &unit : fu_slots)
                    unit.appendSignature(base, sig);
                for (auto &bus : cdb)
                    bus.appendSignature(base, sig);
                sig.push_back(end - base);  // end >= cursor: exact
                if (const auto skip =
                        tracker.finishObserve(base, nullptr, 0)) {
                    i += skip->ops;
                    issue_cursor += skip->delta;
                    end += skip->delta;
                    for (ClockCycle &r : value_ready)
                        r += skip->delta;
                    for (auto &pool : stations) {
                        for (ClockCycle &v : pool)
                            v += skip->delta;
                    }
                    for (auto &unit : fu_slots)
                        unit.shiftTime(skip->delta);
                    for (auto &bus : cdb)
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
            singleIssueBranch<kObs>(
                i, srcA != kNoReg ? value_ready[srcA] : 0, predOk,
                cfg_.branchTime, issue_cursor, end);
            continue;
        }

        const unsigned fu = unsigned(trace.fu(i));
        const bool is_transfer = trace.isTransfer(i);

        // ---- issue: in order, blocks only on a full station pool.
        ClockCycle t = issue_cursor;
        if (!is_transfer) {
            // With every station busy, wait until enough broadcasts
            // free one: the stationsPerFu-th latest frees the last
            // one needed.  Then free every station already past.
            auto &pool = stations[fu];
            if (pool.size() >= org_.stationsPerFu)
                t = std::max(t, pool[pool.size() - org_.stationsPerFu]);
            pool.erase(pool.begin(),
                       std::upper_bound(pool.begin(), pool.end(), t));
        }
        // The only in-order issue blocker is a full station pool;
        // operand and CDB waits happen out at the stations.
        if constexpr (kObs)
            emitStall(StallCause::kBufferDrain, issue_cursor,
                      t - issue_cursor, i);

        // ---- dispatch: operands by tag, then a pipeline slot.
        ClockCycle dispatch = t + 1;    // station latch
        if (srcA != kNoReg)
            dispatch = std::max(dispatch, value_ready[srcA]);
        if (srcB != kNoReg)
            dispatch = std::max(dispatch, value_ready[srcB]);

        ClockCycle completion;
        std::int32_t claimed_cdb = -1;
        if (is_transfer) {
            completion = dispatch + latency;
        } else {
            // Claim an accept slot (one per unit per cycle) and a
            // CDB slot at completion.  On a CDB conflict, jump to
            // the earliest free CDB slot across the buses: every
            // cycle before it has all buses taken, so the jump lands
            // exactly where one-by-one retrying would.
            SparseReservations &unit = fu_slots[fu];
            const bool produces = trace.producesResult(i);
            // Every later probe is past the issue cycle t.
            unit.advanceTo(t);
            if (produces) {
                for (auto &bus : cdb)
                    bus.advanceTo(t);
            }
            while (true) {
                const ClockCycle probe = unit.nextFreeSlot(dispatch);
                if (produces) {
                    bool got_cdb = false;
                    ClockCycle earliest =
                        std::numeric_limits<ClockCycle>::max();
                    for (std::size_t b = 0; b < cdb.size(); ++b) {
                        const ClockCycle slot =
                            cdb[b].nextFreeSlot(probe + latency);
                        if (slot == probe + latency) {
                            cdb[b].reserve(slot);
                            claimed_cdb = std::int32_t(b);
                            got_cdb = true;
                            break;
                        }
                        earliest = std::min(earliest, slot);
                    }
                    if (!got_cdb) {
                        dispatch = earliest - latency;
                        continue;
                    }
                }
                unit.reserve(probe);
                dispatch = probe;
                break;
            }
            completion = dispatch + latency;
            auto &pool = stations[fu];
            pool.insert(std::upper_bound(pool.begin(), pool.end(),
                                         completion),
                        completion);
        }

        if constexpr (kObs) {
            emitAudit(AuditPhase::kIssue, t, i);
            emitAudit(AuditPhase::kDispatch, dispatch, i);
            emitAudit(AuditPhase::kComplete, completion, i,
                      claimed_cdb);
        }
        if (dst != kNoReg)
            value_ready[dst] = completion;
        issue_cursor = t + 1;
        end = std::max(end, completion);
    }

    result.cycles = end;
    result.steadyOpsSkipped = tracker.opsSkipped();
    return result;
}

AuditRules
TomasuloSim::auditRules() const
{
    AuditRules rules;
    rules.rawAt = AuditRules::RawAt::kDispatch;
    rules.execPhase = AuditPhase::kDispatch;
    rules.inOrderFront = true;
    rules.strictSingleFront = true;
    rules.checkBranchFloor = true;
    // Renaming by tag: WAW never serializes completion.
    rules.completionConsistent = true;
    rules.predictor = cfg_.predictor;
    rules.busCount = org_.cdbCount;
    rules.busKind = BusKind::kPerUnit;
    rules.checkFuCaps = true;
    rules.stationsPerFu = org_.stationsPerFu;
    return rules;
}

} // namespace mfusim
