/**
 * @file
 * Multiple-issue buffer machine implementation.
 */

#include "mfusim/sim/multi_issue_sim.hh"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>
#include <vector>

#include "mfusim/core/error.hh"
#include "mfusim/funits/fu_pool.hh"
#include "mfusim/sim/op_time_window.hh"
#include "mfusim/sim/steady_state.hh"
#include "mfusim/spec/predictor.hh"

namespace mfusim
{

namespace
{

constexpr ClockCycle kNever = std::numeric_limits<ClockCycle>::max();
constexpr std::uint32_t kNoProd = DecodedTrace::kNoProducer;
constexpr std::size_t kNoIdx = ~std::size_t(0);

/**
 * The per-run timing state the schedule's helpers below read, besides
 * the scalars runWindows() keeps in locals: the completion cycles of
 * the ops around the window and the unit and result-bus timelines.
 */
struct Lane
{
    Lane(const DecodedTrace &t, const MultiIssueConfig &org,
         const MachineConfig &cfg)
        : trace(&t), completion(4 * std::size_t(org.width) + kOpTimeChunk),
          pool({ FuDiscipline::kSegmented, MemDiscipline::kInterleaved,
                 org.fuCopies, org.memPorts },
               cfg),
          bus(org.busKind, org.width)
    {
    }

    /**
     * Completion cycle of op @p q.  An op leaves the window only once
     * its completion is at or before the cycle the next issue window
     * starts at; every later read compares it against that cycle or a
     * later one, so it reads as 0, the time of an op never issued (or
     * of none, kNoProd).
     */
    ClockCycle
    done(std::size_t q) const
    {
        return completion.holds(q) ? completion[q] : 0;
    }

    const DecodedTrace *trace;
    OpTimeWindow completion;
    FuPool pool;
    ResultBusSet bus;
};

/**
 * Diagnose and abort a tripped watchdog: op @p j, the oldest unissued
 * op, found no issue slot in the pass at cycle @p t, whose next event
 * @p next lies more than @p watchdog cycles after the latest issue.
 * Names the hazard that blocks it.  Kept out of line, with every
 * clock value passed by value, so the string building neither bloats
 * the issue loops it guards nor pins their state to memory.
 */
[[noreturn]] __attribute__((noinline, cold)) void
throwWatchdog(const Lane &lane, ClockCycle watchdog,
              std::size_t j, ClockCycle t, ClockCycle lastEvent,
              ClockCycle next, std::size_t floorIdx,
              ClockCycle floorTime)
{
    const DecodedTrace &trace = *lane.trace;
    ClockCycle earliest = 0;
    std::uint32_t blocker = kNoProd;
    for (const std::uint32_t prod :
         { trace.prodA(j), trace.prodB(j), trace.prevWriter(j) }) {
        if (prod != kNoProd && lane.done(prod) > earliest) {
            earliest = lane.done(prod);
            blocker = prod;
        }
    }
    std::string why;
    if (floorIdx < j && floorTime > earliest) {
        why = "the branch floor of op #" + std::to_string(floorIdx) +
            " (cycle " + std::to_string(floorTime) + ")";
    } else if (earliest > t && blocker != kNoProd) {
        why = "the result of op #" + std::to_string(blocker) + " (" +
            mnemonicOf(trace.op(blocker)) + ", completes at cycle " +
            std::to_string(lane.done(blocker)) + ")";
    } else if (!lane.pool.canAccept(trace.fu(j), t)) {
        why = std::string("the ") + fuClassName(trace.fu(j)) +
            " unit (accepts at cycle " +
            std::to_string(lane.pool.earliestAccept(trace.fu(j), t)) +
            ")";
    } else {
        why = "a result-bus slot at cycle " +
            std::to_string(t + trace.latency(j));
    }
    throw SimError(
        "MultiIssueSim: no issue for " +
        std::to_string(next - lastEvent) + " cycles (watchdog " +
        std::to_string(watchdog) + "; cycles " +
        std::to_string(lastEvent) + ".." + std::to_string(next) +
        "): oldest unissued op #" + std::to_string(j) + " (" +
        mnemonicOf(trace.op(j)) + ") is waiting for " + why);
}

/** The check an in-order op waits on. */
enum class Check
{
    kDependence,    //!< its producers or the branch floor
    kUnit,          //!< its functional unit
    kBus,           //!< its result bus
};

/**
 * In-order issue: the least cycle >= @p t at which op @p j clears
 * @p earliest (its dependences and the branch floor), its functional
 * unit and its result bus (@p busIdx, or any bus on a crossbar) —
 * found by jumping from each failing check to the exact cycle it
 * clears.  @p onWait(at, next, check) sees every jump, in order.
 * Changes no state, so a diagnosis can replay it: a bus window
 * answers any query at or after its base exactly, and no op looks
 * before the previous issue cycle, so queries slide nothing.
 */
template <class OnWait>
inline __attribute__((always_inline)) ClockCycle
inOrderIssueCycle(Lane &lane, std::size_t j,
                  std::size_t busIdx, bool crossbar, ClockCycle t,
                  ClockCycle earliest, OnWait &&onWait)
{
    const DecodedTrace &trace = *lane.trace;
    const FuClass fu = trace.fu(j);
    const unsigned latency = trace.latency(j);
    const bool produces = trace.producesResult(j);
    ClockCycle at = t;
    if (earliest > at) {
        onWait(at, earliest, Check::kDependence);
        at = earliest;
    }
    while (true) {
        const ClockCycle at_fu = lane.pool.earliestAccept(fu, at);
        if (at_fu != at) {
            onWait(at, at_fu, Check::kUnit);
            at = at_fu;
        }
        if (!produces)
            return at;
        ClockCycle slot = kNever;
        if (crossbar) {
            for (std::size_t b = 0; b < lane.bus.numBusses(); ++b)
                slot = std::min(slot,
                                lane.bus.bus(b).nextFreeSlot(at + latency));
        } else {
            slot = lane.bus.bus(busIdx).nextFreeSlot(at + latency);
        }
        if (slot == at + latency)
            return at;
        onWait(at, slot - latency, Check::kBus);
        at = slot - latency;    // recheck the unit
    }
}

/**
 * The watchdog of in-order op @p j tripped somewhere on its way from
 * @p t to its issue cycle: replay the way to the first jump that
 * trips it and diagnose the op there, as a cycle-by-cycle scan would
 * (one that first finds the op blocked at @p chargeFrom).
 */
[[noreturn]] __attribute__((noinline, cold)) void
throwInOrderWatchdog(Lane &lane, ClockCycle watchdog,
                     std::size_t j, std::size_t busIdx, bool crossbar,
                     ClockCycle t, ClockCycle chargeFrom,
                     ClockCycle earliest, ClockCycle lastEvent,
                     std::size_t floorIdx, ClockCycle floorTime)
{
    const ClockCycle at = inOrderIssueCycle(
        lane, j, busIdx, crossbar, t, earliest,
        [&](ClockCycle from, ClockCycle next, Check) {
            if (next - lastEvent > watchdog) {
                throwWatchdog(lane, watchdog, j,
                              std::max(from, chargeFrom), lastEvent,
                              next, floorIdx, floorTime);
            }
        });
    // Unreachable: the issue cycle is the last jump's target.
    throwWatchdog(lane, watchdog, j, t, lastEvent, at, floorIdx,
                  floorTime);
}

} // namespace

MultiIssueSim::MultiIssueSim(const MultiIssueConfig &org,
                             const MachineConfig &cfg)
    : org_(org), cfg_(cfg)
{
    if (org_.width < 1)
        throw ConfigError("MultiIssueSim: width must be >= 1");
    if (org_.fuCopies < 1)
        throw ConfigError("MultiIssueSim: fuCopies must be >= 1");
    if (org_.memPorts < 1)
        throw ConfigError("MultiIssueSim: memPorts must be >= 1");
}

std::string
MultiIssueSim::name() const
{
    std::string text = org_.outOfOrder ? "OutOfOrderIssue" : "SeqIssue";
    text += "(w=" + std::to_string(org_.width) + ", ";
    text += busKindName(org_.busKind);
    text += ")";
    return text;
}

std::string
MultiIssueSim::cacheKey() const
{
    return std::string(org_.outOfOrder ? "ooo" : "seq") +
        "|w=" + std::to_string(org_.width) +
        "|bus=" + busKindName(org_.busKind) +
        "|war=" + (org_.blockWar ? "1" : "0") +
        "|fuc=" + std::to_string(org_.fuCopies) +
        "|mp=" + std::to_string(org_.memPorts) +
        "|wd=" + std::to_string(org_.watchdogCycles) +
        (cfg_.predictor.armed() ? "|pred=" + cfg_.predictor.key()
                                : std::string());
}

SimResult
MultiIssueSim::run(const DecodedTrace &trace)
{
    if (auditSink()) {
        return org_.outOfOrder ? runWindows<true, true>(trace)
                               : runWindows<true, false>(trace);
    }
    return org_.outOfOrder ? runWindows<false, true>(trace)
                           : runWindows<false, false>(trace);
}

template <bool kObs, bool kOutOfOrder>
SimResult
MultiIssueSim::runWindows(const DecodedTrace &trace) const
{
    checkDecodedConfig(trace, cfg_);
    if (trace.hasVector()) {
        throw SimError(
            "MultiIssueSim: vector instructions are not "
            "supported (the paper's multiple-issue study is "
            "scalar-only; use ScoreboardSim)");
    }
    const std::size_t n = trace.size();
    Lane lane(trace, org_, cfg_);
    OpTimeWindow &completion = lane.completion;
    FuPool &pool = lane.pool;
    ResultBusSet &bus = lane.bus;
    // Armed predictor: the front end speculates down the predicted
    // path.  Without one every branch blocks (the paper).
    const std::vector<std::uint8_t> predictions = predictionBytes(trace);
    const bool spec = !predictions.empty();
    const std::uint8_t *const predOk = predictions.data();
    SteadyStateTracker tracker(steadyPeriods(trace), n);
    const unsigned width = org_.width;
    const ClockCycle branch_time = cfg_.branchTime;
    const bool crossbar = bus.kind() == BusKind::kCrossbar;
    const bool single_bus = bus.kind() == BusKind::kSingle;
    const ClockCycle watchdog = org_.watchdogCycles > 0
                                    ? org_.watchdogCycles
                                    : kDefaultWatchdogCycles;

    std::size_t wStart = 0;         // first op of the next window
    std::size_t boundary = tracker.nextBoundary();
    std::vector<ClockCycle> shifted;    // landing snapshot of the window
    ClockCycle t = 0;               // cycle the next window starts
    ClockCycle last_event = 0;      // latest issue (watchdog)
    ClockCycle end = 0;
    // Issue floor of the latest blocking or mispredicted branch: no
    // later op issues before floorTime.  floorResolve is a squashed
    // mispredict's resolve cycle (stall attribution).
    std::size_t floorIdx = kNoIdx;
    ClockCycle floorTime = 0;
    ClockCycle floorResolve = 0;
    bool floorMispredict = false;
    std::uint64_t squashes = 0;
    std::uint64_t wrongPathOps = 0;
    std::uint64_t mispredictCycles = 0;
    // The layout of the times for the issue loops, refreshed at each
    // open; reads as Lane::done() does.
    OpTimeWindow::View cv = completion.view();
    const auto done = [&cv](std::size_t q) __attribute__((always_inline)) {
        return cv.holds(q) ? cv[q] : ClockCycle(0);
    };
    // Evict every issued op whose completion is at or before the next
    // issue window's start cycle (see Lane::done()).  The predicate
    // copies wStart and t, so they stay out of memory.
    const auto evict_stale = [&]() __attribute__((always_inline)) {
        completion.evict([wStart, t](std::size_t q, ClockCycle time) {
            return q < wStart && time <= t;
        });
    };

    // A branch squashes the buffer slots behind it when the machine
    // must refetch: a mispredicted branch, or a taken branch on the
    // blocking front end.
    const auto squashes_window = [&trace, spec, predOk](std::size_t j) {
        return trace.isBranch(j) && (spec ? !predOk[j] : trace.taken(j));
    };

    // One mispredicted branch can be pending per window (it
    // truncates the window behind itself); its resolve time and
    // wrong-path fetch are settled once the window drains, when the
    // condition producer's completion time is known.
    std::size_t pendingBranch = kNoIdx;
    ClockCycle pendingIssue = 0;

    // Issue op @p j at cycle @p at from issue unit @p unit: the
    // bookkeeping both issue orders share.  The caller has reserved
    // its result bus.
    const auto issue = [&](std::size_t j, bool is_branch, ClockCycle at,
                           unsigned unit, ClockCycle ready, bool produces)
        __attribute__((always_inline)) {
        if constexpr (kObs) {
            emitAudit(AuditPhase::kIssue, at, j, std::int32_t(unit));
            if (!is_branch) {
                emitAudit(AuditPhase::kComplete, ready, j,
                          produces ? std::int32_t(unit) : -1);
            }
        }
        cv[j] = ready;
        if (is_branch) {
            if (spec && !predOk[j]) {
                pendingBranch = j;
                pendingIssue = at;
                end = std::max(end, at + 1);
            } else if (spec) {
                // Predicted correctly: one issue slot, no gating.
                end = std::max(end, at + 1);
            } else {
                floorIdx = j;
                floorTime = at + branch_time;
                end = std::max(end, floorTime);
            }
        } else {
            end = std::max(end, ready);
        }
    };

    // The cycles op @p j waits for: its producers' results (raw: the
    // sources; waw: the previous writer of its destination) and,
    // with the branch floor, the earliest cycle they allow.  Under a
    // predictor the front end carries on past every branch without
    // waiting for its condition: a mispredicted one resolves (and
    // squashes) in the background.
    struct Dependences
    {
        ClockCycle raw;
        ClockCycle waw;
        ClockCycle earliest;
    };
    const auto dependences = [&](std::size_t j)
        __attribute__((always_inline)) {
        const std::uint32_t prodA = trace.prodA(j);
        const std::uint32_t prodB = trace.prodB(j);
        const std::uint32_t prevW = trace.prevWriter(j);
        Dependences d{ 0, 0, 0 };
        if (!(spec && trace.isBranch(j)))
            d.raw = done(prodA);
        d.raw = std::max(d.raw, done(prodB));
        d.waw = done(prevW);
        d.earliest = std::max(d.raw, d.waw);
        if (floorIdx < j)
            d.earliest = std::max(d.earliest, floorTime);
        return d;
    };
    // Why op @p j, blocked at cycle @p at by its dependences @p d, is
    // waiting: the binding constraint in the paper's conflict
    // classes, or the floor of a squashed mispredict — wrong-path
    // fetch up to its resolve, the refetch redirect after it.
    const auto dependence_cause = [&](std::size_t j, const Dependences &d,
                                      ClockCycle at) {
        if (floorMispredict && floorIdx < j && floorTime == d.earliest &&
            d.raw != d.earliest && d.waw != d.earliest) {
            return at < floorResolve ? StallCause::kMispredict
                                     : StallCause::kSquashDrain;
        }
        return trace.isBranch(j)      ? StallCause::kBranch
               : d.raw == d.earliest ? StallCause::kRaw
               : d.waw == d.earliest ? StallCause::kWaw
                                     : StallCause::kBranch;
    };
    // Charge cycles [@p from, @p next) to @p cause for op @p j; a
    // wrong-path wait that outlasts the resolve ends as squash drain.
    const auto charge = [&](StallCause cause, ClockCycle from,
                            ClockCycle next, std::size_t j) {
        if (cause == StallCause::kMispredict && next > floorResolve) {
            emitStall(StallCause::kMispredict, from, floorResolve - from,
                      j);
            emitStall(StallCause::kSquashDrain, floorResolve,
                      next - floorResolve, j);
        } else {
            emitStall(cause, from, next - from, j);
        }
    };

    // In-order issue: each op of the window [wStart, @p wEnd) at the
    // least cycle that clears its constraints (see the class
    // comment), no earlier than the previous op's.
    const auto schedule_in_order = [&](std::size_t wEnd)
        __attribute__((always_inline)) {
        for (std::size_t i = wStart; i < wEnd; ++i) {
            const std::uint8_t flags = trace.flags(i);
            const bool is_branch = flags & DecodedTrace::kIsBranch;
            const bool produces = flags & DecodedTrace::kProducesResult;
            const unsigned unit = unsigned(i - wStart);
            const std::size_t bus_idx = single_bus ? 0 : unit;
            const Dependences d = dependences(i);

            // Within a window the next op may issue in the same cycle
            // as the previous one, so a cycle-by-cycle scan would
            // first find it blocked one cycle later: stalls are
            // charged from there.  The instrumented run checks the
            // watchdog at each jump, before charging it; the plain
            // run once per op, replaying the jumps only if it trips.
            const ClockCycle charge_from = i == wStart ? t : t + 1;
            const ClockCycle at = inOrderIssueCycle(
                lane, i, bus_idx, crossbar, t, d.earliest,
                [&]([[maybe_unused]] ClockCycle jump_at,
                    [[maybe_unused]] ClockCycle next,
                    [[maybe_unused]] Check check) {
                    if constexpr (kObs) {
                        const ClockCycle from =
                            std::max(jump_at, charge_from);
                        if (next - last_event > watchdog) {
                            throwWatchdog(lane, watchdog, i, from,
                                          last_event, next, floorIdx,
                                          floorTime);
                        }
                        charge(check == Check::kUnit  ? StallCause::kFuBusy
                               : check == Check::kBus ? StallCause::kBusBusy
                                   : dependence_cause(i, d, from),
                               from, next, i);
                    }
                });
            if constexpr (!kObs) {
                if (at - last_event > watchdog) {
                    throwInOrderWatchdog(lane, watchdog, i, bus_idx,
                                         crossbar, t, charge_from,
                                         d.earliest, last_event,
                                         floorIdx, floorTime);
                }
            }

            const FuClass fu = trace.fu(i);
            const ClockCycle ready =
                pool.accept(fu, at, trace.latency(i));
            if (produces) {
                // The crossbar takes the first bus with the
                // completion cycle free.
                std::size_t b = crossbar ? 0 : bus_idx;
                while (true) {
                    CycleReservations &rb = bus.bus(b);
                    rb.advanceTo(at);
                    if (rb.tryReserve(ready))
                        break;
                    assert(crossbar && b + 1 < bus.numBusses() &&
                           "result bus slot taken");
                    ++b;
                }
            }
            issue(i, is_branch, at, unit, ready, produces);
            last_event = at;
            t = at;
        }
        t += 1;
    };

    // Out-of-order issue: rescan the window pass by pass.
    //
    // Program-order dependence links, precomputed at decode time:
    // a younger instruction may write a register before an older
    // reader has issued; the older reader must wait on its *true*
    // (program-order) producer, not on whatever wrote the register
    // most recently.  (The paper ignores WAR hazards, so the younger
    // write neither blocks nor creates a dependence.)
    std::vector<bool> issued;
    std::vector<std::uint64_t> conflict;
    // Static buffer-order hazards of the current window, as bitmasks:
    // bit k of conflict[j] is set when window entry k (k < j) blocks
    // entry j while k is unissued.  Whether a pair conflicts depends
    // only on the instructions (registers, branch prediction), not
    // on timing, so the masks are computed once per window and each
    // pass's hazard scan collapses to one AND against the unissued
    // mask.  Windows wider than 64 fall back to the per-pair scan.
    const bool use_masks = width <= 64;
    if constexpr (kOutOfOrder) {
        issued.resize(width);
        conflict.resize(use_masks ? width : 0);
    }
    // A branch blocks the entries behind it unless it is predicted
    // correctly (the machine does not otherwise speculate); under a
    // predictor a branch does not wait for its condition.
    const auto blocks_later = [&trace, spec, predOk](std::size_t k) {
        return trace.isBranch(k) && !(spec && predOk[k]);
    };
    const auto pair_blocks = [&](std::size_t k, std::size_t j) {
        if (blocks_later(k))
            return true;                // no speculation
        const RegId prev_dst = trace.dst(k);
        if (prev_dst != kNoReg) {
            if (!(spec && trace.isBranch(j)) &&
                (prev_dst == trace.srcA(j) || prev_dst == trace.srcB(j)))
                return true;            // RAW in buffer
            if (prev_dst == trace.dst(j))
                return true;            // WAW in buffer
        }
        return org_.blockWar && trace.dst(j) != kNoReg &&
            (trace.srcA(k) == trace.dst(j) ||
             trace.srcB(k) == trace.dst(j));    // WAR in buffer
    };
    const auto schedule_out_of_order = [&](std::size_t wEnd)
        __attribute__((always_inline)) {
        std::fill(issued.begin(), issued.end(), false);
        const std::size_t wlen = wEnd - wStart;
        std::uint64_t unissued_mask = 0;
        if (use_masks) {
            unissued_mask = wlen >= 64 ? ~std::uint64_t(0)
                                       : (std::uint64_t(1) << wlen) - 1;
            for (std::size_t j = wStart; j < wEnd; ++j) {
                std::uint64_t mask = 0;
                for (std::size_t k = wStart; k < j; ++k) {
                    if (pair_blocks(k, j))
                        mask |= std::uint64_t(1) << (k - wStart);
                }
                conflict[j - wStart] = mask;
            }
        }

        std::size_t remaining = wlen;
        while (remaining > 0) {
            bus.advanceTo(t);
            bool progress = false;
            ClockCycle hint = kNever;   // earliest future issue event

            // Stall attribution: the oldest unissued window entry is
            // never blocked by a buffer-order hazard (every earlier
            // entry has issued), so it always reaches a concrete
            // dependency / FU / bus check whose cause we record.  If
            // this pass issues nothing, the skipped cycles are
            // charged to that cause.
            [[maybe_unused]] bool head_blocked = false;
            [[maybe_unused]] bool seen_unissued = false;
            [[maybe_unused]] StallCause head_cause = StallCause::kOther;
            [[maybe_unused]] std::uint64_t head_op = 0;

            for (std::size_t j = wStart; j < wEnd; ++j) {
                const std::size_t s = j - wStart;
                bool buffer_hazard = false;
                if (use_masks) {
                    if (!(unissued_mask >> s & 1))
                        continue;       // already issued
                    buffer_hazard = (unissued_mask & conflict[s]) != 0;
                } else {
                    if (issued[s])
                        continue;
                    for (std::size_t k = wStart;
                         k < j && !buffer_hazard; ++k) {
                        buffer_hazard =
                            !issued[k - wStart] && pair_blocks(k, j);
                    }
                }
                if (buffer_hazard) {
                    if constexpr (kObs)
                        seen_unissued = true;
                    continue;
                }
                [[maybe_unused]] bool is_head = false;
                if constexpr (kObs) {
                    is_head = !seen_unissued;
                    seen_unissued = true;
                }

                // Register and control constraints give a concrete
                // earliest cycle; buffer-order hazards (against
                // earlier *unissued* entries) are resolved only by a
                // later cycle's scan.
                const unsigned latency = trace.latency(j);
                const Dependences d = dependences(j);
                if (d.earliest > t) {
                    if constexpr (kObs) {
                        if (is_head && !head_blocked) {
                            head_cause = dependence_cause(j, d, t);
                            head_op = j;
                            head_blocked = true;
                        }
                    }
                    hint = std::min(hint, d.earliest);
                    continue;
                }

                // Structural: functional unit and result bus.
                const unsigned unit = unsigned(s);
                const FuClass op_fu = trace.fu(j);
                if (!pool.canAccept(op_fu, t)) {
                    if constexpr (kObs) {
                        if (is_head && !head_blocked) {
                            head_cause = StallCause::kFuBusy;
                            head_op = j;
                            head_blocked = true;
                        }
                    }
                    hint = std::min(hint,
                                    pool.earliestAccept(op_fu, t));
                    continue;
                }
                const bool produces = trace.producesResult(j);
                if (produces && !bus.canReserve(unit, t + latency)) {
                    if constexpr (kObs) {
                        if (is_head && !head_blocked) {
                            head_cause = StallCause::kBusBusy;
                            head_op = j;
                            head_blocked = true;
                        }
                    }
                    // Exact next event: every completion cycle up to
                    // the first free slot is taken on every eligible
                    // bus, and a no-progress pass adds no
                    // reservations, so the op cannot issue any
                    // earlier.
                    hint = std::min(
                        hint,
                        bus.earliestReserve(unit, t + latency) -
                            latency);
                    continue;
                }

                // Issue instruction j at cycle t.
                const ClockCycle ready =
                    pool.accept(op_fu, t, latency);
                if (produces)
                    bus.reserve(unit, ready);
                issue(j, trace.isBranch(j), t, unit, ready, produces);
                issued[s] = true;
                unissued_mask &= ~(std::uint64_t(1) << s);
                --remaining;
                progress = true;
            }

            // Advance time: one cycle after any progress, otherwise
            // jump to the next cycle at which anything can change.
            if (progress) {
                last_event = t;
                t += 1;
                continue;
            }
            const ClockCycle next =
                hint == kNever ? t + 1 : std::max(t + 1, hint);
            if (next - last_event > watchdog) {
                const auto oldest =
                    std::find(issued.begin(), issued.end(), false);
                throwWatchdog(lane, watchdog,
                              wStart + std::size_t(oldest -
                                                   issued.begin()),
                              t, last_event, next, floorIdx, floorTime);
            }
            if constexpr (kObs) {
                // Nothing issued this pass: charge [t, next) to
                // whatever blocked the oldest unissued entry.
                if (head_blocked)
                    charge(head_cause, t, next, head_op);
            }
            t = next;
        }
    };

    while (wStart < n) {
        // Steady-state fast path (see sim/steady_state.hh; audit runs
        // use the plain path).  Boundaries are checked at window
        // refill; under a predictor the window strides past them,
        // which the tracker handles by folding the cursor-boundary
        // offset into the signature.  Boundary state: the watchdog
        // gap, the branch floor, the completion times the segment can
        // still read (its link-lookback window plus fixed pre-segment
        // producers), the pool and bus timelines, and the end
        // watermark; a mispredict always settles before the refill.
        // Predictors with history (2-bit counters, fixed-accuracy
        // hashes) do not respect the trace's loop period, so the
        // fast path stays off for them.
        if (wStart >= boundary) {
            if (tracker.beginObserve(wStart)) {
                const TraceSegment &seg = tracker.segment();
                const std::size_t lw = seg.lookback;
                if (wStart < lw) {
                    // Not enough simulated history to snapshot the
                    // lookback window.
                    tracker.cancelObserve();
                } else {
                    const ClockCycle base = t;
                    auto &sig = tracker.sigBuffer();
                    sig.push_back(t - last_event);  // watchdog: exact
                    sig.push_back(floorIdx != kNoIdx && floorTime > base
                                      ? floorTime - base
                                      : 0);
                    for (std::size_t q = wStart - lw; q < wStart; ++q)
                        sig.push_back(lane.done(q) > base
                                          ? lane.done(q) - base
                                          : 0);
                    // A live pre-segment completion can never match
                    // across boundaries (it is a fixed cycle while
                    // the clock advances), so a match certifies all
                    // of these are stale — no shift needed.
                    for (const std::uint32_t a : seg.ancients)
                        sig.push_back(lane.done(a) > base
                                          ? lane.done(a) - base
                                          : 0);
                    pool.appendSignature(base, sig);
                    bus.appendSignature(base, sig);
                    sig.push_back(end - base);  // end >= t at refill
                    const std::uint64_t counters[3] = {
                        squashes, wrongPathOps, mispredictCycles
                    };
                    if (const auto skip =
                            tracker.finishObserve(base, counters, 3)) {
                        const std::size_t oldW = wStart;
                        wStart += skip->ops;
                        t += skip->delta;
                        end += skip->delta;
                        last_event += skip->delta;
                        if (floorIdx != kNoIdx)
                            floorTime += skip->delta;
                        pool.shiftTime(skip->delta);
                        bus.shiftTime(skip->delta);
                        squashes += skip->counters[0];
                        wrongPathOps += skip->counters[1];
                        mispredictCycles += skip->counters[2];
                        // Refill the lookback window behind the
                        // landing cursor with the state shift: the
                        // source op has the same cursor-relative
                        // phase and was simulated exactly.  Ops
                        // skipped below the lookback read as 0.
                        // Opening the landing window can move or
                        // overwrite the sources, so shift out of a
                        // snapshot.
                        const std::size_t from =
                            std::max(oldW, wStart - lw);
                        shifted.clear();
                        for (std::size_t q = from; q < wStart; ++q)
                            shifted.push_back(lane.done(q - skip->ops) +
                                              skip->delta);
                        if (!completion.fits(wStart)) {
                            evict_stale();
                            // Nothing live held: the skipped ops
                            // below the window read as 0.
                            if (completion.lo() == completion.hi())
                                completion.rekey(from, from);
                        }
                        completion.open(wStart, 0);
                        cv = completion.view();
                        for (std::size_t q = from; q < wStart; ++q)
                            completion[q] = shifted[q - from];
                    }
                }
            }
            boundary = tracker.nextBoundary();
        }

        // Window [wStart, wEnd): a squashing branch ends it (the
        // slots behind it hold wrong-path instructions that never
        // issue).
        std::size_t wEnd = std::min(wStart + width, n);
        for (std::size_t j = wStart; j < wEnd; ++j) {
            if (squashes_window(j)) {
                wEnd = j + 1;
                break;
            }
        }
        if (!cv.holds(wEnd - 1)) [[unlikely]] {
            // Open a chunk of ops ahead, at 0 until they issue.
            const std::size_t hi = std::min(n, wEnd + kOpTimeChunk);
            if (!completion.fits(hi))
                evict_stale();
            completion.open(hi, 0);
            cv = completion.view();
        }
        if constexpr (kOutOfOrder)
            schedule_out_of_order(wEnd);
        else
            schedule_in_order(wEnd);

        // A mispredicted branch drained with this window: it issued
        // at pendingIssue and resolves at tr (PredictorSpec::
        // resolveCycle: when its condition register materializes, no
        // earlier than the next cycle if the window fetches
        // anything).  Until then the front end fetches and issues down
        // the wrong path (synthesized from the following trace ops,
        // bounded by the wrong-path window), polluting FU and
        // result-bus timelines; right-path reservations all exist by
        // now, so the wrong path never displaces them.  The squash
        // at tr flushes every wrong-path op precisely — none has
        // touched architectural state (completion[] carries only
        // trace ops) — and the refetch redirect floors the right
        // path at tr + branchTime.
        if (pendingBranch != kNoIdx) {
            const std::size_t j = pendingBranch;
            const ClockCycle tr = cfg_.predictor.resolveCycle(
                pendingIssue, trace.prodA(j) != kNoProd
                                  ? done(trace.prodA(j))
                                  : 0);

            // The result busses remember cycles from the window's
            // last issue on (a window slides them no further), so
            // the wrong path may only reserve those.
            const ClockCycle bus_base = last_event;
            bus.advanceTo(bus_base);
            const unsigned window = cfg_.predictor.wrongPathWindow;
            for (unsigned k = 0; k < window; ++k) {
                const ClockCycle c = pendingIssue + 1 + k / width;
                if (c >= tr)
                    break;
                const std::size_t src = (j + 1 + k) % n;
                const FuClass wrong_fu = trace.fu(src);
                const unsigned wrong_lat = trace.latency(src);
                if (!trace.isBranch(src) && !trace.isTransfer(src) &&
                    pool.canAccept(wrong_fu, c)) {
                    pool.accept(wrong_fu, c, wrong_lat);
                    // Its (doomed) result claims a completion slot
                    // when the bus still remembers that cycle and no
                    // right-path op holds it.
                    const unsigned unit = k % width;
                    const ClockCycle done = c + wrong_lat;
                    if (trace.producesResult(src) && done >= bus_base &&
                        done - bus_base < 64 &&
                        bus.canReserve(unit, done)) {
                        bus.reserve(unit, done);
                    }
                }
                ++wrongPathOps;
                if constexpr (kObs)
                    emitAudit(AuditPhase::kWrongPath, c, j,
                              std::int32_t(k));
            }

            floorIdx = j;
            floorResolve = tr;
            floorTime = tr + cfg_.branchTime;
            floorMispredict = true;
            end = std::max(end, floorTime);
            ++squashes;
            mispredictCycles += floorTime - (pendingIssue + 1);
            if constexpr (kObs)
                emitAudit(AuditPhase::kSquash, tr, j);
            pendingBranch = kNoIdx;
        }

        // Refill: the next window's instructions can issue no
        // earlier than the cycle after the last issue from this one
        // (and no earlier than a pending branch floor, which the
        // per-instruction check enforces).
        wStart = wEnd;
    }

    if (spec && n > 0)
        recordSpecRun(squashes, wrongPathOps, mispredictCycles);
    SimResult result;
    result.instructions = n;
    result.cycles = end;
    result.steadyOpsSkipped = tracker.opsSkipped();
    result.squashes = squashes;
    result.wrongPathOps = wrongPathOps;
    return result;
}

AuditRules
MultiIssueSim::auditRules() const
{
    AuditRules rules;
    rules.rawAt = AuditRules::RawAt::kIssue;
    rules.inOrderFront = !org_.outOfOrder;
    rules.frontWidth = org_.width;
    rules.checkBranchFloor = true;
    rules.wawOrdered = true;
    rules.completionConsistent = true;
    rules.busCount =
        org_.busKind == BusKind::kSingle ? 1 : org_.width;
    rules.busKind = org_.busKind;
    rules.checkFuCaps = true;
    rules.fuCopies = org_.fuCopies;
    rules.memPorts = org_.memPorts;
    rules.predictor = cfg_.predictor;
    return rules;
}

} // namespace mfusim
