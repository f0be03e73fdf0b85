/**
 * @file
 * Tomasulo machine implementation.
 *
 * The simulation is event driven (no cycle loop): instructions are
 * processed in program order, and every timing constraint resolves
 * to a max() over previously computed completion times plus
 * first-free-slot searches in small reservation sets.
 */

#include "mfusim/sim/tomasulo_sim.hh"

#include <algorithm>
#include <array>
#include <limits>
#include <set>
#include <vector>

#include "mfusim/core/error.hh"
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

    // Station occupancy per FU class: completion (broadcast) times
    // of the live stations.  A multiset (not a priority queue) so
    // the steady-state snapshot can enumerate and shift it.
    std::array<std::multiset<ClockCycle>, kNumFuClasses> stations;

    // Per-FU pipeline accept slots and CDB slots (out-of-order
    // arrivals -> reservation sets).
    std::array<std::set<ClockCycle>, kNumFuClasses> fu_slots;
    std::set<ClockCycle> mem_slots;
    std::vector<std::set<ClockCycle>> cdb(org_.cdbCount);

    // First cycle at or after @p from with no reservation in @p s.
    // A no-progress scan adds nothing to the set, so the walk finds
    // exactly the cycle one-by-one probing would.
    const auto nextFree = [](const std::set<ClockCycle> &s,
                             ClockCycle from) {
        auto it = s.lower_bound(from);
        while (it != s.end() && *it == from) {
            ++from;
            ++it;
        }
        return from;
    };

    ClockCycle issue_cursor = 0;
    ClockCycle end = 0;

    // Armed predictor (zero window): correctly predicted branches are
    // free; mispredicted ones block like the paper's.
    const bool spec = cfg_.predictor.armed();
    std::vector<std::uint8_t> predOk;
    if (spec)
        predOk = precomputePredictions(trace, cfg_.predictor);

    // Steady-state fast path (off under audit).  Boundary state:
    // live register values, station broadcast times, and the accept /
    // CDB reservation sets pruned to the future, rebased to the
    // issue cursor.  Predictors with history mispredict
    // aperiodically and keep the plain path.
    const bool steady = steadyStateEnabled() && !kObs &&
        cfg_.predictor.isStatic();
    SteadyStateTracker tracker(steady ? &trace.periodicity() : nullptr,
                               n);
    std::size_t boundary = tracker.nextBoundary();
    const std::vector<RegId> &written = trace.writtenRegs();

    // Reservations at or before @p base can never be probed again
    // (future probes start after the issue cursor): drop them.
    const auto prune = [](auto &s, ClockCycle base) {
        s.erase(s.begin(), s.upper_bound(base));
    };
    const auto appendSet = [](const auto &s, ClockCycle base,
                              std::vector<std::uint64_t> &sig) {
        sig.push_back(s.size());
        for (const ClockCycle v : s)
            sig.push_back(v - base);
    };

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
                for (auto &pool : stations) {
                    prune(pool, base);      // past broadcasts are
                    appendSet(pool, base, sig); // popped lazily anyway
                }
                for (auto &unit : fu_slots) {
                    prune(unit, base);
                    appendSet(unit, base, sig);
                }
                prune(mem_slots, base);
                appendSet(mem_slots, base, sig);
                for (auto &bus : cdb) {
                    prune(bus, base);
                    appendSet(bus, base, sig);
                }
                sig.push_back(end - base);  // end >= cursor: exact
                if (const auto skip =
                        tracker.finishObserve(base, nullptr, 0)) {
                    i += skip->ops;
                    issue_cursor += skip->delta;
                    end += skip->delta;
                    for (ClockCycle &r : value_ready)
                        r += skip->delta;
                    const auto shiftSet = [&](auto &s) {
                        std::decay_t<decltype(s)> shifted;
                        for (const ClockCycle v : s)
                            shifted.insert(shifted.end(),
                                           v + skip->delta);
                        s.swap(shifted);
                    };
                    for (auto &pool : stations)
                        shiftSet(pool);
                    for (auto &unit : fu_slots)
                        shiftSet(unit);
                    shiftSet(mem_slots);
                    for (auto &bus : cdb)
                        shiftSet(bus);
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
                srcA != kNoReg ? value_ready[srcA] : 0;
            if (spec && predOk[i]) {
                const ClockCycle t = issue_cursor;
                if constexpr (kObs)
                    emitAudit(AuditPhase::kIssue, t, i);
                issue_cursor = t + 1;
                end = std::max(end, t + 1);
            } else {
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

        const unsigned fu = unsigned(trace.fu(i));
        const bool is_transfer = trace.isTransfer(i);

        // ---- issue: in order, blocks only on a full station pool.
        ClockCycle t = issue_cursor;
        if (!is_transfer) {
            auto &pool = stations[fu];
            // Free every station whose broadcast is already past.
            while (!pool.empty() && *pool.begin() <= t)
                pool.erase(pool.begin());
            while (pool.size() >= org_.stationsPerFu) {
                t = std::max(t, *pool.begin());
                while (!pool.empty() && *pool.begin() <= t)
                    pool.erase(pool.begin());
            }
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
            std::set<ClockCycle> &unit = trace.isMemory(i) ?
                mem_slots : fu_slots[fu];
            const bool produces = trace.producesResult(i);
            while (true) {
                const ClockCycle probe = nextFree(unit, dispatch);
                if (produces) {
                    bool got_cdb = false;
                    ClockCycle earliest =
                        std::numeric_limits<ClockCycle>::max();
                    for (std::size_t b = 0; b < cdb.size(); ++b) {
                        const ClockCycle slot =
                            nextFree(cdb[b], probe + latency);
                        if (slot == probe + latency) {
                            cdb[b].insert(slot);
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
                unit.insert(probe);
                dispatch = probe;
                break;
            }
            completion = dispatch + latency;
            stations[fu].insert(completion);
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
