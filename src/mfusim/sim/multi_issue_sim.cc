/**
 * @file
 * Multiple-issue buffer machine implementation.
 */

#include "mfusim/sim/multi_issue_sim.hh"

#include <algorithm>
#include <array>
#include <limits>
#include <vector>

#include "mfusim/core/error.hh"
#include "mfusim/sim/steady_state.hh"

namespace mfusim
{

namespace
{

constexpr ClockCycle kNever = std::numeric_limits<ClockCycle>::max();

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
    return auditSink() ? runImpl<true>(trace) : runImpl<false>(trace);
}

template <bool kObs>
SimResult
MultiIssueSim::runImpl(const DecodedTrace &trace)
{
    checkDecodedConfig(trace, cfg_);
    SimResult result;
    result.instructions = trace.size();
    if (trace.empty())
        return result;

    const std::size_t n = trace.size();

    // The multiple-issue study is scalar-only, as in the paper.
    if (trace.hasVector()) {
        throw SimError(
            "MultiIssueSim: vector instructions are not "
            "supported (the paper's multiple-issue study is "
            "scalar-only; use ScoreboardSim)");
    }

    // Armed predictor: the front end speculates down the predicted
    // path.  Prediction outcomes are precomputed once in trace order
    // (they are timing-independent; wrong-path ops never update the
    // predictor).  Without one every branch blocks (the paper).
    const bool spec = cfg_.predictor.armed();
    std::vector<std::uint8_t> predOk;
    if (spec)
        predOk = precomputePredictions(trace, cfg_.predictor);

    // A branch is "predicted free" when it resolves without gating
    // the stream: a correctly predicted branch.
    const auto predicted_free = [&trace, spec, &predOk](std::size_t j) {
        return spec && trace.isBranch(j) && predOk[j] != 0;
    };
    // Under a predictor the front end carries on past every branch
    // without waiting for its condition: a mispredicted one resolves
    // (and squashes) in the background.
    const auto issue_free = [&trace, spec](std::size_t j) {
        return spec && trace.isBranch(j);
    };
    // A branch squashes the buffer slots behind it when the machine
    // must refetch: a mispredicted branch, or a taken branch on the
    // blocking front end.
    const auto squashes = [&trace, spec,
                           &predicted_free](std::size_t j) {
        if (!trace.isBranch(j) || predicted_free(j))
            return false;
        return spec || trace.taken(j);
    };

    // Program-order dependence links, precomputed at decode time.
    // With out-of-order issue a younger instruction may write a
    // register before an older reader has issued; the older reader
    // must wait on its *true* (program-order) producer, not on
    // whatever wrote the register most recently.  (The paper ignores
    // WAR hazards, so the younger write neither blocks nor creates a
    // dependence.)  prodA/prodB point at the last earlier writer of
    // each source; prevWriter at the last earlier writer of the
    // destination (the CRAY WAW register reservation).
    constexpr std::uint32_t kNoProd = DecodedTrace::kNoProducer;
    // Completion (result-available) time of each issued instruction.
    std::vector<ClockCycle> completion(n, 0);
    FuPool pool({ FuDiscipline::kSegmented,
                  MemDiscipline::kInterleaved, org_.fuCopies,
                  org_.memPorts },
                cfg_);
    ResultBusSet bus(org_.busKind, org_.width);

    std::vector<bool> issued(org_.width, false);
    // Static buffer-order hazards of the current window, as
    // bitmasks: bit k of conflict[j] is set when window entry k
    // (k < j) blocks entry j while k is unissued.  Whether a pair
    // conflicts depends only on the instructions (registers, branch
    // prediction), not on timing, so the masks are computed once per
    // window and each pass's hazard scan collapses to one AND
    // against the unissued mask.  Windows wider than 64 fall back to
    // the per-pair scan.
    const bool use_masks = org_.width <= 64;
    std::vector<std::uint64_t> conflict(use_masks ? org_.width : 0);
    std::uint64_t unissued_mask = 0;

    // Issue floor imposed by the most recently issued branch: no
    // instruction that follows it in program order may issue before
    // floorTime.  When the floor comes from a squashed mispredict,
    // floorResolve splits it for stall attribution: cycles before
    // the resolve were spent fetching the wrong path, cycles after
    // it are the post-squash redirect.
    std::size_t floorIdx = std::numeric_limits<std::size_t>::max();
    ClockCycle floorTime = 0;
    ClockCycle floorResolve = 0;
    bool floorMispredict = false;

    // One mispredicted branch can be pending per window (it
    // truncates the window behind itself); its resolve time and
    // wrong-path fetch are settled once the window drains, when the
    // condition producer's completion time is known.
    constexpr std::size_t kNoPending =
        std::numeric_limits<std::size_t>::max();
    std::size_t pendingBranch = kNoPending;
    ClockCycle pendingIssue = 0;
    std::uint64_t mispredictCycles = 0;

    ClockCycle t = 0;
    ClockCycle end = 0;
    // Forgetting horizon of the result-bus reservation window: the
    // wrong-path pollution below may only reserve cycles the bus
    // still remembers (>= its last advanceTo).
    ClockCycle busBase = 0;
    // No-forward-progress watchdog: cycle of the most recent issue.
    const ClockCycle watchdog = org_.watchdogCycles > 0
                                    ? org_.watchdogCycles
                                    : kDefaultWatchdogCycles;
    ClockCycle last_event = 0;
    // Diagnose and abort a tripped watchdog: name the oldest
    // unissued op and the hazard that blocks it.  Kept out of line
    // so the string building does not bloat the issue loop it
    // guards; the hot window bounds come in as arguments so their
    // addresses never escape into the closure.
    const auto throw_watchdog =
        [&](ClockCycle next, std::size_t wStart, std::size_t wEnd)
            __attribute__((noinline, cold)) {
        std::size_t oldest = wEnd;
        for (std::size_t j = wStart; j < wEnd; ++j) {
            if (!issued[j - wStart]) {
                oldest = j;
                break;
            }
        }
        std::string why = "unknown hazard";
        if (oldest < wEnd) {
            const std::size_t j = oldest;
            ClockCycle earliest = 0;
            std::uint32_t blocker = kNoProd;
            for (const std::uint32_t prod :
                 { trace.prodA(j), trace.prodB(j),
                   trace.prevWriter(j) }) {
                if (prod != kNoProd && completion[prod] > earliest) {
                    earliest = completion[prod];
                    blocker = prod;
                }
            }
            if (floorIdx < j && floorTime > earliest) {
                why = "the branch floor of op #" +
                    std::to_string(floorIdx) + " (cycle " +
                    std::to_string(floorTime) + ")";
            } else if (earliest > t && blocker != kNoProd) {
                why = "the result of op #" +
                    std::to_string(blocker) + " (" +
                    mnemonicOf(trace.op(blocker)) +
                    ", completes at cycle " +
                    std::to_string(completion[blocker]) + ")";
            } else if (!pool.canAccept(trace.fu(j), t)) {
                why = std::string("the ") +
                    fuClassName(trace.fu(j)) +
                    " unit (accepts at cycle " +
                    std::to_string(pool.earliestAccept(
                        trace.fu(j), t)) +
                    ")";
            } else {
                why = "a result-bus slot at cycle " +
                    std::to_string(t + trace.latency(j));
            }
        }
        throw SimError(
            "MultiIssueSim: no issue for " +
            std::to_string(next - last_event) +
            " cycles (watchdog " + std::to_string(watchdog) +
            "; cycles " + std::to_string(last_event) + ".." +
            std::to_string(next) + "): oldest unissued op #" +
            std::to_string(oldest) +
            (oldest < wEnd
                 ? std::string(" (") +
                       mnemonicOf(trace.op(oldest)) +
                       ") is waiting for " + why
                 : std::string(" is outside the window")));
    };

    // Steady-state fast path (see sim/steady_state.hh; audit runs
    // use the plain path).  Boundaries are checked at window refill;
    // under a predictor the window strides past them, which the
    // tracker handles by folding the cursor-boundary offset into the
    // signature.  Boundary state: the watchdog gap, the branch floor,
    // the completion times the segment can still read (its
    // link-lookback window plus fixed pre-segment producers), the
    // pool and bus timelines, and the end watermark; a mispredict
    // always settles before the refill.  Predictors with history
    // (2-bit counters, fixed-accuracy hashes) do not respect the
    // trace's loop period, so the fast path stays off for them.
    const bool steady = !kObs && steadyStateEnabled() &&
        cfg_.predictor.isStatic();
    SteadyStateTracker tracker(steady ? &trace.periodicity() : nullptr,
                               n);
    std::size_t boundary = tracker.nextBoundary();

    std::size_t wStart = 0;             // first instruction in buffer
    while (wStart < n) {
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
                    sig.push_back(
                        floorIdx != std::numeric_limits<
                                        std::size_t>::max() &&
                                floorTime > base
                            ? floorTime - base
                            : 0);
                    for (std::size_t q = wStart - lw; q < wStart; ++q)
                        sig.push_back(completion[q] > base
                                          ? completion[q] - base
                                          : 0);
                    // A live pre-segment completion can never match
                    // across boundaries (it is a fixed cycle while
                    // the clock advances), so a match certifies all
                    // of these are stale — no shift needed.
                    for (const std::uint32_t a : seg.ancients)
                        sig.push_back(completion[a] > base
                                          ? completion[a] - base
                                          : 0);
                    pool.appendSignature(base, sig);
                    bus.appendSignature(base, sig);
                    sig.push_back(end - base);  // end >= t at refill
                    const std::uint64_t counters[3] = {
                        result.squashes, result.wrongPathOps,
                        mispredictCycles
                    };
                    if (const auto skip =
                            tracker.finishObserve(base, counters, 3)) {
                        const std::size_t oldW = wStart;
                        wStart += skip->ops;
                        t += skip->delta;
                        end += skip->delta;
                        last_event += skip->delta;
                        if (floorIdx != std::numeric_limits<
                                            std::size_t>::max())
                            floorTime += skip->delta;
                        pool.shiftTime(skip->delta);
                        bus.shiftTime(skip->delta);
                        result.squashes += skip->counters[0];
                        result.wrongPathOps += skip->counters[1];
                        mispredictCycles += skip->counters[2];
                        // Refill the lookback window behind the
                        // landing cursor with the state shift: the
                        // source op has the same cursor-relative
                        // phase and was simulated exactly.
                        for (std::size_t q = wStart - lw; q < wStart;
                             ++q) {
                            if (q < oldW)
                                continue;       // simulated exactly
                            completion[q] =
                                completion[q - skip->ops] +
                                skip->delta;
                        }
                    }
                }
            }
            boundary = tracker.nextBoundary();
        }
        // Window [wStart, wEnd): a taken branch squashes the slots
        // behind it (they hold wrong-path instructions that never
        // issue), so the issuable window ends just after it.
        std::size_t wEnd = std::min(wStart + org_.width, n);
        for (std::size_t j = wStart; j < wEnd; ++j) {
            if (squashes(j)) {
                wEnd = j + 1;
                break;
            }
        }
        std::fill(issued.begin(), issued.end(), false);

        const std::size_t wlen = wEnd - wStart;
        if (use_masks) {
            unissued_mask = wlen >= 64 ? ~std::uint64_t(0)
                                       : (std::uint64_t(1) << wlen) - 1;
            for (std::size_t j = wStart; j < wEnd; ++j) {
                const std::size_t s = j - wStart;
                if (!org_.outOfOrder) {
                    // Sequential issue: every unissued predecessor
                    // blocks.
                    conflict[s] = (std::uint64_t(1) << s) - 1;
                    continue;
                }
                std::uint64_t mask = 0;
                const bool free_branch = issue_free(j);
                const RegId op_dst = trace.dst(j);
                const RegId op_srcA = trace.srcA(j);
                const RegId op_srcB = trace.srcB(j);
                for (std::size_t k = wStart; k < j; ++k) {
                    bool blocks = false;
                    if (trace.isBranch(k) && !predicted_free(k))
                        blocks = true;          // no speculation
                    const RegId prev_dst = trace.dst(k);
                    if (prev_dst != kNoReg) {
                        if (!free_branch &&
                            (prev_dst == op_srcA ||
                             prev_dst == op_srcB)) {
                            blocks = true;      // RAW in buffer
                        }
                        if (prev_dst == op_dst)
                            blocks = true;      // WAW in buffer
                    }
                    if (org_.blockWar && op_dst != kNoReg &&
                        (trace.srcA(k) == op_dst ||
                         trace.srcB(k) == op_dst)) {
                        blocks = true;          // WAR in buffer
                    }
                    if (blocks)
                        mask |= std::uint64_t(1) << (k - wStart);
                }
                conflict[s] = mask;
            }
        }

        std::size_t remaining = wlen;
        while (remaining > 0) {
            bus.advanceTo(t);
            busBase = t;
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
            [[maybe_unused]] bool head_floor_split = false;

            for (std::size_t j = wStart; j < wEnd; ++j) {
                const std::size_t s = j - wStart;
                bool buffer_hazard;
                if (use_masks) {
                    if (!(unissued_mask >> s & 1))
                        continue;       // already issued
                    buffer_hazard = (unissued_mask & conflict[s]) != 0;
                } else {
                    if (issued[s])
                        continue;
                    buffer_hazard = false;
                    for (std::size_t k = wStart;
                         k < j && !buffer_hazard; ++k) {
                        if (issued[k - wStart])
                            continue;
                        if (!org_.outOfOrder) {
                            // Sequential issue: any unissued
                            // predecessor blocks.
                            buffer_hazard = true;
                            break;
                        }
                        if (trace.isBranch(k) && !predicted_free(k)) {
                            buffer_hazard = true;   // no speculation
                            break;
                        }
                        const RegId prev_dst = trace.dst(k);
                        if (prev_dst != kNoReg) {
                            if (!issue_free(j) &&
                                (prev_dst == trace.srcA(j) ||
                                 prev_dst == trace.srcB(j))) {
                                buffer_hazard = true;   // RAW in buffer
                            }
                            if (prev_dst == trace.dst(j))
                                buffer_hazard = true;   // WAW in buffer
                        }
                        if (org_.blockWar && trace.dst(j) != kNoReg &&
                            (trace.srcA(k) == trace.dst(j) ||
                             trace.srcB(k) == trace.dst(j))) {
                            buffer_hazard = true;       // WAR in buffer
                        }
                    }
                }
                if (buffer_hazard) {
                    if constexpr (kObs)
                        seen_unissued = true;
                    if (!org_.outOfOrder)
                        break;      // nothing later may issue either
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
                const bool free_branch = issue_free(j);
                ClockCycle earliest = 0;
                // A predicted-free branch does not wait for its
                // condition to issue (it resolves in the background).
                if (!free_branch && trace.prodA(j) != kNoProd)
                    earliest = std::max(earliest,
                                        completion[trace.prodA(j)]);
                if (trace.prodB(j) != kNoProd)
                    earliest = std::max(earliest,
                                        completion[trace.prodB(j)]);
                if (trace.prevWriter(j) != kNoProd)
                    earliest = std::max(earliest,
                                        completion[trace.prevWriter(j)]);
                if (floorIdx < j)
                    earliest = std::max(earliest, floorTime);

                if (earliest > t) {
                    if constexpr (kObs) {
                        if (is_head && !head_blocked) {
                            // Decompose the binding register/control
                            // constraint back into the paper's
                            // conflict classes.
                            ClockCycle rawT = 0, wawT = 0;
                            if (!free_branch &&
                                trace.prodA(j) != kNoProd)
                                rawT = completion[trace.prodA(j)];
                            if (trace.prodB(j) != kNoProd)
                                rawT = std::max(
                                    rawT, completion[trace.prodB(j)]);
                            if (trace.prevWriter(j) != kNoProd)
                                wawT = completion[trace.prevWriter(j)];
                            if (floorMispredict && floorIdx < j &&
                                floorTime == earliest &&
                                rawT != earliest && wawT != earliest) {
                                // Blocked by a squashed mispredict:
                                // wrong-path fetch up to the resolve,
                                // the refetch redirect after it.
                                head_cause = t < floorResolve
                                    ? StallCause::kMispredict
                                    : StallCause::kSquashDrain;
                                head_floor_split = t < floorResolve;
                            } else {
                                head_cause = trace.isBranch(j)
                                    ? StallCause::kBranch
                                    : rawT == earliest
                                        ? StallCause::kRaw
                                    : wawT == earliest
                                        ? StallCause::kWaw
                                        : StallCause::kBranch;
                            }
                            head_op = j;
                            head_blocked = true;
                        }
                    }
                    hint = std::min(hint, earliest);
                    if (!org_.outOfOrder)
                        break;
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
                    if (!org_.outOfOrder)
                        break;
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
                    // earlier (the old conservative hint was t + 1,
                    // which rescanned the window every cycle).
                    hint = std::min(
                        hint,
                        bus.earliestReserve(unit, t + latency) -
                            latency);
                    if (!org_.outOfOrder)
                        break;
                    continue;
                }

                // Issue instruction j at cycle t.
                const ClockCycle ready =
                    pool.accept(op_fu, t, latency);
                if constexpr (kObs) {
                    emitAudit(AuditPhase::kIssue, t, j,
                              std::int32_t(unit));
                    if (!trace.isBranch(j)) {
                        emitAudit(AuditPhase::kComplete, ready, j,
                                  produces ? std::int32_t(unit) : -1);
                    }
                }
                if (produces) {
                    bus.reserve(unit, ready);
                    end = std::max(end, ready);
                }
                completion[j] = ready;
                if (trace.isBranch(j)) {
                    if (spec && !predOk[j]) {
                        // Mispredicted: the resolve time, wrong-path
                        // fetch and squash floor are settled at
                        // window drain, once the condition
                        // producer's completion time is known.
                        pendingBranch = j;
                        pendingIssue = t;
                        end = std::max(end, t + 1);
                    } else if (free_branch) {
                        // One issue slot, no gating.
                        end = std::max(end, t + 1);
                    } else {
                        floorIdx = j;
                        floorTime = t + cfg_.branchTime;
                        end = std::max(end, floorTime);
                    }
                } else {
                    end = std::max(end, ready);
                }
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
            if (next - last_event > watchdog)
                throw_watchdog(next, wStart, wEnd);
            if constexpr (kObs) {
                // Nothing issued this pass: charge [t, next) to
                // whatever blocked the oldest unissued entry.  A
                // span that straddles a mispredict's resolve cycle
                // splits into wrong-path fetch + squash drain.
                if (head_blocked) {
                    if (head_floor_split && next > floorResolve) {
                        emitStall(StallCause::kMispredict, t,
                                  floorResolve - t, head_op);
                        emitStall(StallCause::kSquashDrain,
                                  floorResolve, next - floorResolve,
                                  head_op);
                    } else {
                        emitStall(head_cause, t, next - t, head_op);
                    }
                }
            }
            t = next;
        }

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
        if (spec && pendingBranch != kNoPending) {
            const std::size_t j = pendingBranch;
            const ClockCycle tr = cfg_.predictor.resolveCycle(
                pendingIssue, trace.prodA(j) != kNoProd
                                  ? completion[trace.prodA(j)]
                                  : 0);

            const unsigned window = cfg_.predictor.wrongPathWindow;
            for (unsigned k = 0; k < window; ++k) {
                const ClockCycle c =
                    pendingIssue + 1 + k / org_.width;
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
                    const unsigned unit = k % org_.width;
                    const ClockCycle done = c + wrong_lat;
                    if (trace.producesResult(src) && done >= busBase &&
                        done - busBase < 64 &&
                        bus.canReserve(unit, done)) {
                        bus.reserve(unit, done);
                    }
                }
                ++result.wrongPathOps;
                if constexpr (kObs)
                    emitAudit(AuditPhase::kWrongPath, c, j,
                              std::int32_t(k));
            }

            floorIdx = j;
            floorResolve = tr;
            floorTime = tr + cfg_.branchTime;
            floorMispredict = true;
            end = std::max(end, floorTime);
            ++result.squashes;
            mispredictCycles += floorTime - (pendingIssue + 1);
            if constexpr (kObs)
                emitAudit(AuditPhase::kSquash, tr, j);
            pendingBranch = kNoPending;
        }

        // Refill: the next window's instructions can issue no
        // earlier than the cycle after the last issue from this one
        // (and no earlier than a pending branch floor, which the
        // per-instruction check enforces).
        wStart = wEnd;
    }

    result.cycles = end;
    result.steadyOpsSkipped = tracker.opsSkipped();
    if (spec)
        recordSpecRun(result.squashes, result.wrongPathOps,
                      mispredictCycles);
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
