/**
 * @file
 * RUU machine implementation.
 */

#include "mfusim/sim/ruu_sim.hh"

#include <algorithm>
#include <limits>
#include <vector>

#include "mfusim/core/error.hh"
#include "mfusim/sim/op_time_window.hh"
#include "mfusim/sim/steady_state.hh"

namespace mfusim
{

namespace
{

constexpr ClockCycle kUnknown = std::numeric_limits<ClockCycle>::max();
constexpr std::uint32_t kNoProducer = DecodedTrace::kNoProducer;
/** Committed entries the RUU list keeps behind its head before it
 *  compacts: the list holds at most ruuSize + kCompactSlack entries. */
constexpr std::size_t kCompactSlack = 1024;

} // namespace

RuuSim::RuuSim(const RuuConfig &org, const MachineConfig &cfg)
    : org_(org), cfg_(cfg)
{
    if (org_.width < 1)
        throw ConfigError("RuuSim: width must be >= 1");
    if (org_.ruuSize < org_.width) {
        throw ConfigError(
            "RuuSim: each issue unit needs at least one RUU slot"
            " (ruuSize " + std::to_string(org_.ruuSize) +
            " < width " + std::to_string(org_.width) + ")");
    }
    if (org_.fuCopies < 1)
        throw ConfigError("RuuSim: fuCopies must be >= 1");
    if (org_.memPorts < 1)
        throw ConfigError("RuuSim: memPorts must be >= 1");
}

std::string
RuuSim::name() const
{
    return "RUU(w=" + std::to_string(org_.width) +
        ", size=" + std::to_string(org_.ruuSize) + ", " +
        busKindName(org_.busKind) + ")";
}

std::string
RuuSim::cacheKey() const
{
    return "ruu|w=" + std::to_string(org_.width) +
        "|size=" + std::to_string(org_.ruuSize) +
        "|bus=" + busKindName(org_.busKind) +
        "|fuc=" + std::to_string(org_.fuCopies) +
        "|mp=" + std::to_string(org_.memPorts) +
        "|wd=" + std::to_string(org_.watchdogCycles) +
        (cfg_.predictor.armed() ? "|pred=" + cfg_.predictor.key()
                                : std::string());
}

SimResult
RuuSim::run(const DecodedTrace &trace)
{
    return auditSink() ? runImpl<true>(trace) : runImpl<false>(trace);
}

template <bool kObs>
SimResult
RuuSim::runImpl(const DecodedTrace &trace)
{
    checkDecodedConfig(trace, cfg_);
    SimResult result;
    result.instructions = trace.size();
    if (trace.empty())
        return result;

    const std::size_t n = trace.size();

    // The RUU study is scalar-only, as in the paper.
    if (trace.hasVector()) {
        throw SimError(
            "RuuSim: vector instructions are not supported "
            "(the paper's RUU study is scalar-only; use "
            "ScoreboardSim)");
    }

    // Slot banking: the restricted N-Bus organization gives each
    // issue unit a private bank of slots and busses; 1-Bus and X-Bar
    // share one pool of slots.
    const bool banked = org_.busKind == BusKind::kPerUnit;
    const unsigned num_banks = banked ? org_.width : 1;
    std::vector<unsigned> bank_cap(num_banks);
    for (unsigned b = 0; b < num_banks; ++b) {
        bank_cap[b] = banked ?
            org_.ruuSize / org_.width +
                (b < org_.ruuSize % org_.width ? 1 : 0) :
            org_.ruuSize;
    }

    // Per-cycle dispatch capacity (RUU -> functional units).
    const unsigned dispatch_cap =
        org_.busKind == BusKind::kSingle ? 1 : org_.width;
    // Per-cycle commit capacity (RUU head -> register file).
    const unsigned commit_cap = dispatch_cap;

    // Armed predictor: the front end speculates down the predicted
    // path.  Without one every branch blocks (the paper).
    const std::vector<std::uint8_t> predOk = predictionBytes(trace);
    const bool spec = !predOk.empty();

    struct Entry
    {
        std::uint32_t idx;  //!< trace op (wrong: the op it mimics)
        unsigned bank;
        bool dispatched;
        /**
         * A wrong-path entry: synthesized past a mispredicted
         * branch.  It occupies its bank slot and contends for
         * dispatch capacity, functional units and writeback busses
         * like any entry, but its operands are garbage (treated as
         * ready), it never writes result_time (no architectural
         * effect), and it can never commit — the squash flushes it.
         */
        bool wrong = false;
    };

    // The RUU holds a sliding program-order window [ruu_head,
    // ruu.size()) of at most ruuSize live entries; committed entries
    // are left behind the head rather than erased (cheaper than a
    // deque, identical iteration order) until kCompactSlack of them
    // pile up, and then the live ones move to the front.
    std::vector<Entry> ruu;
    const std::size_t ruu_cap =
        org_.ruuSize + std::min(n, kCompactSlack);
    ruu.reserve(ruu_cap);
    std::size_t ruu_head = 0;
    std::vector<unsigned> bank_count(num_banks, 0);
    // Dispatches per bank in the current cycle (reset every cycle).
    std::vector<unsigned> dispatched_bank(num_banks, 0);

    FuPool pool({ FuDiscipline::kSegmented,
                  MemDiscipline::kInterleaved, org_.fuCopies,
                  org_.memPorts },
                cfg_);
    // FU -> RUU writeback busses.
    ResultBusSet wb(org_.busKind, org_.width);

    std::size_t next_insert = 0;        // next trace op to issue
    std::uint64_t insert_counter = 0;   // round-robin bank assignment
    ClockCycle insert_blocked_until = 0;
    // Wrong-path fetch mode: set while a mispredicted branch is in
    // flight.  The front end pushes synthesized wrong-path entries
    // (sources, banks and the round-robin phase are all derived from
    // a private counter so the squash restores the never-fetched
    // front-end state exactly) until the branch resolves.
    bool wrong_mode = false;
    std::size_t wrong_branch = 0;       // the mispredicted branch
    ClockCycle wrong_ts = 0;            // its insert cycle
    unsigned wrong_count = 0;           // wrong-path ops fetched
    std::uint64_t wrong_counter = 0;    // private bank round-robin
    std::size_t wrong_mark = 0;         // ruu.size() at the mispredict
    bool drain_from_squash = false;     // attribution of the redirect
    std::uint64_t mispredict_cycles = 0;
    ClockCycle t = 0;
    ClockCycle end = 0;
    // No-forward-progress watchdog: cycle of the most recent event.
    const ClockCycle watchdog = org_.watchdogCycles > 0
                                    ? org_.watchdogCycles
                                    : kDefaultWatchdogCycles;
    ClockCycle last_event = 0;

    // Result times of the ops [times.lo(), next_insert), and of a
    // chunk ahead of it: kUnknown until the op dispatches, and forever
    // for a branch.  An op leaves the window only once it is older
    // than the oldest live real entry.  Every non-branch op there has
    // committed, so its result time is at or before t, and every check
    // reads it as it reads 0: ready, stale in the signature, and no
    // later than the resolve cycle (a branch's condition producer
    // cannot commit before the resolve check that squashes the branch
    // has seen its time).  An op also stays while a steady-state
    // signature can read it (the longest segment lookback behind that
    // entry), so the signature reads times, not branch flags.  The
    // loop reads the window through rt, its layout, refreshed whenever
    // the window opens or re-keys ops.
    const TracePeriodicity *const periods = steadyPeriods(trace);
    std::size_t lookback = 0;
    if (periods != nullptr) {
        for (const TraceSegment &seg : periods->segments)
            lookback = std::max(lookback, seg.lookback);
    }
    OpTimeWindow times(2 * std::size_t(org_.ruuSize) + lookback +
                       kOpTimeChunk);
    OpTimeWindow::View rt = times.view();
    const auto result_time = [&](std::size_t q)
        __attribute__((always_inline)) -> ClockCycle {
        if (!rt.holds(q))
            return trace.isBranch(q) ? kUnknown : 0;
        return rt[q];
    };
    // The same for a producer, which is never a branch.
    const auto producer_time = [&](std::uint32_t prod)
        __attribute__((always_inline)) -> ClockCycle {
        return rt.holds(prod) ? rt[prod] : 0;
    };
    // Oldest op a check can read the time of besides its producers.
    const auto floor_op = [&]() -> std::size_t {
        return ruu_head < ruu.size() && !ruu[ruu_head].wrong
                   ? ruu[ruu_head].idx
                   : next_insert;
    };
    // Hold op next_insert's result time before the front end takes
    // it, opening a chunk of ops ahead when it is not held yet.
    const auto open_next = [&]() __attribute__((always_inline)) {
        if (rt.holds(next_insert)) [[likely]]
            return;
        const std::size_t hi = std::min(n, next_insert + kOpTimeChunk);
        if (!times.fits(hi)) {
            times.evict([floor = floor_op(), lookback](std::size_t q,
                                                       ClockCycle) {
                return q + lookback < floor;
            });
        }
        times.open(hi, kUnknown);
        rt = times.view();
    };
    // Make room for one more entry at the end of the list.
    const auto make_room = [&]() __attribute__((always_inline)) {
        if (ruu.size() < ruu_cap)
            return;
        ruu.erase(ruu.begin(), ruu.begin() + std::ptrdiff_t(ruu_head));
        if (wrong_mode)
            wrong_mark -= ruu_head;
        ruu_head = 0;
    };

    // True once the producing value of operand (producer id) is
    // available at cycle t: at once without a producer (never held),
    // or once the producer has left the window (a producer is never a
    // branch).
    const auto operand_ready = [&](std::uint32_t prod, ClockCycle t)
        __attribute__((always_inline)) {
        if (!rt.holds(prod))
            return true;
        const ClockCycle r = rt[prod];
        return r != kUnknown && r <= t;
    };
    // Future cycle at which the operand becomes available, if known.
    const auto operand_hint = [&](std::uint32_t prod)
        __attribute__((always_inline)) -> ClockCycle {
        if (prod == kNoProducer)
            return kUnknown;
        return producer_time(prod);
    };

    // Diagnose and abort a tripped watchdog: name the oldest stuck
    // work and the resource or result it is waiting for.  Kept
    // out of line so the string building does not bloat the
    // scheduling loop it guards.
    const auto throw_watchdog =
        [&](ClockCycle next) __attribute__((noinline, cold)) {
        // The time an operand is due: 0 once its producer has left
        // the window (or without one).  Read from the window itself,
        // so rt stays out of this path.
        const auto due = [&](std::uint32_t prod) {
            return times.holds(prod) ? times[prod] : ClockCycle(0);
        };
        const auto ready = [&](std::uint32_t prod) {
            return due(prod) != kUnknown && due(prod) <= t;
        };
        std::string why;
        if (ruu_head < ruu.size()) {
            const Entry &head = ruu[ruu_head];
            const std::uint32_t idx = head.idx;
            why = "RUU head op #" + std::to_string(idx) +
                " (" + mnemonicOf(trace.op(idx)) + ")";
            if (!head.dispatched) {
                const std::uint32_t prodA = trace.prodA(idx);
                const std::uint32_t prodB = trace.prodB(idx);
                if (!ready(prodA)) {
                    why += " is undispatched, waiting for the"
                        " result of op #" + std::to_string(prodA);
                    const ClockCycle h = due(prodA);
                    if (h != kUnknown)
                        why += " (due at cycle " +
                            std::to_string(h) + ")";
                    else
                        why += " (not yet scheduled)";
                } else if (!ready(prodB)) {
                    why += " is undispatched, waiting for the"
                        " result of op #" + std::to_string(prodB);
                    const ClockCycle h = due(prodB);
                    if (h != kUnknown)
                        why += " (due at cycle " +
                            std::to_string(h) + ")";
                    else
                        why += " (not yet scheduled)";
                } else if (!pool.canAccept(trace.fu(idx), t)) {
                    why += " is undispatched, waiting for a "
                        + std::string(fuClassName(trace.fu(idx))) +
                        " unit (free at cycle " +
                        std::to_string(pool.earliestAccept(
                            trace.fu(idx), t)) + ")";
                } else {
                    why += " is undispatched, waiting for a"
                        " free writeback-bus slot on bank " +
                        std::to_string(head.bank);
                }
            } else {
                why += " is dispatched, waiting for its"
                    " result at cycle " +
                    std::to_string(idx < next_insert ? due(idx)
                                                     : kUnknown);
            }
        } else if (t < insert_blocked_until) {
            why = "issue is blocked by a branch until cycle " +
                std::to_string(insert_blocked_until);
        } else if (next_insert < n && trace.isBranch(next_insert)) {
            why = "branch op #" + std::to_string(next_insert) +
                " is waiting for its condition (result of op #" +
                std::to_string(trace.prodA(next_insert)) + ")";
        } else {
            why = "op #" + std::to_string(next_insert) +
                " cannot be inserted (RUU bank full with no"
                " retiring entries)";
        }
        throw SimError(
            "RuuSim: no forward progress for " +
            std::to_string(next - last_event) +
            " cycles (watchdog " + std::to_string(watchdog) +
            "; cycles " + std::to_string(last_event) + ".." +
            std::to_string(next) + "): " + why);
    };

    // Steady-state fast path (see sim/steady_state.hh).  Boundary
    // state: the watchdog gap, the branch block, the end watermark,
    // the round-robin bank phase, the live RUU entries (index
    // relative to the insert cursor), and the result times the
    // segment can still read — producers of both future inserts
    // (link lookback) and of the live entries.  Boundaries met while
    // a mispredict is in flight are not observed.
    SteadyStateTracker tracker(periods, n);
    std::size_t boundary = tracker.nextBoundary();
    std::vector<ClockCycle> shifted;    // landing snapshot of the span

    while (next_insert < n || ruu_head < ruu.size()) {
        if (next_insert >= boundary && boundary < n) {
            if (tracker.beginObserve(next_insert)) {
                const TraceSegment &seg = tracker.segment();
                // Oldest op index any future check can read: live
                // entries reach back `span` ops, and every in-segment
                // dependence link reaches back at most seg.lookback
                // further.  The span is itself part of the signature
                // (the entry list encodes it), so matching states
                // agree on the window length.
                const std::size_t span =
                    ruu_head < ruu.size()
                        ? next_insert - ruu[ruu_head].idx
                        : 0;
                const std::size_t lw = seg.lookback + span;
                if (next_insert < lw || wrong_mode) {
                    tracker.cancelObserve();
                } else {
                    const ClockCycle base = t;
                    auto &sig = tracker.sigBuffer();
                    sig.push_back(t - last_event);  // watchdog: exact
                    sig.push_back(insert_blocked_until > base
                                      ? insert_blocked_until - base
                                      : 0);
                    // `end` can trail `t` (inserts do not move it),
                    // so encode the exact signed difference.
                    sig.push_back(
                        std::uint64_t(end) - std::uint64_t(base));
                    if (banked)
                        sig.push_back(insert_counter % org_.width);
                    for (std::size_t e = ruu_head; e < ruu.size();
                         ++e) {
                        const Entry &entry = ruu[e];
                        sig.push_back(next_insert - entry.idx);
                        sig.push_back(entry.bank);
                        sig.push_back(entry.dispatched ? 1 : 0);
                        if (entry.dispatched) {
                            const ClockCycle r = rt[entry.idx];
                            sig.push_back(r > base ? r - base : 0);
                        }
                    }
                    sig.push_back(sig.size());  // section delimiter
                    for (std::size_t q = next_insert - lw;
                         q < next_insert; ++q) {
                        const ClockCycle r = result_time(q);
                        sig.push_back(
                            r == kUnknown
                                ? std::uint64_t(kUnknown)
                                : (r > base ? r - base : 0));
                    }
                    // Live pre-segment results can never match
                    // across boundaries (fixed cycle, advancing
                    // clock): a match certifies these are stale.
                    for (const std::uint32_t a : seg.ancients) {
                        const ClockCycle r = producer_time(a);
                        sig.push_back(
                            r == kUnknown
                                ? std::uint64_t(kUnknown)
                                : (r > base ? r - base : 0));
                    }
                    pool.appendSignature(base, sig);
                    wb.appendSignature(base, sig);
                    const std::uint64_t counters[3] = {
                        result.squashes, result.wrongPathOps,
                        mispredict_cycles
                    };
                    if (const auto skip =
                            tracker.finishObserve(base, counters, 3)) {
                        const std::size_t old_floor = floor_op();
                        const std::size_t old_next = next_insert;
                        next_insert += skip->ops;
                        t += skip->delta;
                        end += skip->delta;
                        last_event += skip->delta;
                        insert_blocked_until += skip->delta;
                        insert_counter +=
                            (skip->ops / seg.period) * seg.inserts;
                        for (std::size_t e = ruu_head;
                             e < ruu.size(); ++e)
                            ruu[e].idx += std::uint32_t(skip->ops);
                        pool.shiftTime(skip->delta);
                        wb.shiftTime(skip->delta);
                        result.squashes += skip->counters[0];
                        result.wrongPathOps += skip->counters[1];
                        mispredict_cycles += skip->counters[2];
                        // Refill the window behind the landing cursor
                        // with the state shift: op q takes the state
                        // the op with the same cursor-relative
                        // position held at the observation (kUnknown
                        // — an undispatched entry or a branch —
                        // stays kUnknown).  The window then holds the
                        // live span [floor, cursor) only; an op below
                        // it reads as committed or branch, as its
                        // shifted time would.  Re-keying reuses the
                        // sources' slots, so shift out of a snapshot.
                        shifted.clear();
                        for (std::size_t q = old_floor; q < old_next;
                             ++q) {
                            const ClockCycle s = times[q];
                            shifted.push_back(s == kUnknown
                                                  ? kUnknown
                                                  : s + skip->delta);
                        }
                        const std::size_t floor = floor_op();
                        times.rekey(floor, next_insert);
                        rt = times.view();
                        for (std::size_t q = floor; q < next_insert;
                             ++q)
                            rt[q] = shifted[q - floor];
                    }
                }
            }
            boundary = tracker.nextBoundary();
        }
        bool progress = false;
        ClockCycle hint = kUnknown;
        wb.advanceTo(t);

        // ---- resolve: squash a mispredicted branch -----------------
        if (wrong_mode) {
            // The branch resolves once its condition operand exists
            // (PredictorSpec::resolveCycle); unknown until the
            // producer dispatches.
            const std::uint32_t prod = trace.prodA(wrong_branch);
            ClockCycle tr = kUnknown;
            if (prod == kNoProducer)
                tr = cfg_.predictor.resolveCycle(wrong_ts, 0);
            else if (producer_time(prod) != kUnknown)
                tr = cfg_.predictor.resolveCycle(wrong_ts,
                                                 producer_time(prod));
            if (tr != kUnknown && t >= tr) {
                // Precise squash: every entry younger than the branch
                // is wrong-path by construction; dropping them (and
                // their bank slots) restores exactly the state a
                // machine that never fetched them would hold.  FU and
                // writeback-bus reservations already made by
                // dispatched wrong-path work stay — that pollution is
                // the cost of speculation.
                for (std::size_t e = wrong_mark; e < ruu.size(); ++e)
                    bank_count[ruu[e].bank]--;
                ruu.resize(wrong_mark);
                wrong_mode = false;
                insert_blocked_until = tr + cfg_.branchTime;
                drain_from_squash = true;
                end = std::max(end, insert_blocked_until);
                ++result.squashes;
                mispredict_cycles +=
                    insert_blocked_until - (wrong_ts + 1);
                if constexpr (kObs)
                    emitAudit(AuditPhase::kSquash, tr, wrong_branch);
                progress = true;
            } else if (tr != kUnknown) {
                hint = std::min(hint, tr);
            }
        }

        // Front-end stall attribution for this cycle: set when the
        // insert stage has ops left but could not insert anything
        // (branch hold / condition wait / full RUU bank).  Cycles
        // where the front is empty-handed because the trace ran out
        // fall into the drain bucket instead.
        [[maybe_unused]] bool front_blocked = false;
        [[maybe_unused]] StallCause front_cause = StallCause::kOther;
        [[maybe_unused]] std::uint64_t front_op = 0;

        // ---- commit: retire completed results from the head -------
        unsigned committed = 0;
        while (committed < commit_cap && ruu_head < ruu.size()) {
            const Entry &head = ruu[ruu_head];
            if (head.wrong)
                break;      // wrong-path work never commits
            if (!head.dispatched)
                break;
            const ClockCycle r = rt[head.idx];
            if (r > t) {
                hint = std::min(hint, r);
                break;
            }
            if constexpr (kObs)
                emitAudit(AuditPhase::kCommit, t, head.idx);
            bank_count[head.bank]--;
            ++ruu_head;
            end = std::max(end, t);
            ++committed;
            progress = true;
        }

        // ---- dispatch: RUU -> functional units ---------------------
        unsigned dispatched_total = 0;
        std::fill(dispatched_bank.begin(), dispatched_bank.end(), 0u);
        for (std::size_t e = ruu_head; e < ruu.size(); ++e) {
            Entry &entry = ruu[e];
            if (dispatched_total >= dispatch_cap)
                break;
            if (entry.dispatched)
                continue;
            if (banked && dispatched_bank[entry.bank] >= 1)
                continue;

            const std::uint32_t idx = entry.idx;
            if (entry.wrong) {
                // Wrong-path work: operands are garbage, so they are
                // treated as ready; it contends for the functional
                // unit and writeback bus like real work but has no
                // architectural effect — no result_time write and no
                // audit events (the mimicked trace op runs for real
                // later).
                const unsigned wlat = trace.latency(idx);
                const FuClass wfu = trace.fu(idx);
                if (!pool.canAccept(wfu, t))
                    continue;
                if (!wb.canReserve(entry.bank, t + wlat))
                    continue;
                wb.reserve(entry.bank, pool.accept(wfu, t, wlat));
                entry.dispatched = true;
                ++dispatched_total;
                dispatched_bank[entry.bank]++;
                progress = true;
                continue;
            }
            const std::uint32_t prodA = trace.prodA(idx);
            const std::uint32_t prodB = trace.prodB(idx);
            if (!operand_ready(prodA, t) ||
                !operand_ready(prodB, t)) {
                const ClockCycle ha = operand_hint(prodA);
                const ClockCycle hb = operand_hint(prodB);
                ClockCycle ready_at = 0;
                if (ha != kUnknown)
                    ready_at = std::max(ready_at, ha);
                if (hb != kUnknown)
                    ready_at = std::max(ready_at, hb);
                if (ready_at > t && ha != kUnknown &&
                    hb != kUnknown) {
                    // Both producers scheduled: concrete wakeup time.
                    hint = std::min(hint, ready_at);
                }
                continue;
            }
            const unsigned latency = trace.latency(idx);
            const FuClass fu = trace.fu(idx);
            if (!pool.canAccept(fu, t)) {
                hint = std::min(hint, pool.earliestAccept(fu, t));
                continue;
            }
            if (!wb.canReserve(entry.bank, t + latency)) {
                // Exact next event: every completion cycle up to the
                // first free slot is taken, and a no-progress pass
                // adds no reservations, so this entry cannot
                // dispatch earlier (the old conservative hint was
                // t + 1, which rescanned the RUU every cycle).
                hint = std::min(hint,
                                wb.earliestReserve(entry.bank,
                                                   t + latency) -
                                    latency);
                continue;
            }

            const ClockCycle ready = pool.accept(fu, t, latency);
            if constexpr (kObs) {
                emitAudit(AuditPhase::kDispatch, t, idx,
                          std::int32_t(entry.bank));
                emitAudit(AuditPhase::kComplete, ready, idx,
                          std::int32_t(entry.bank));
            }
            wb.reserve(entry.bank, ready);
            rt[idx] = ready;
            entry.dispatched = true;
            end = std::max(end, ready);
            ++dispatched_total;
            dispatched_bank[entry.bank]++;
            progress = true;
        }

        // ---- insert: issue units -> RUU ----------------------------
        if (t < insert_blocked_until) {
            if constexpr (kObs) {
                if (next_insert < n) {
                    front_blocked = true;
                    front_cause = drain_from_squash
                                      ? StallCause::kSquashDrain
                                      : StallCause::kBranch;
                    front_op = next_insert;
                }
            }
            hint = std::min(hint, insert_blocked_until);
        } else if (wrong_mode) {
            // Wrong-path fetch: the front end keeps issuing down the
            // predicted (wrong) path, synthesizing up to `width` ops
            // per cycle shaped like the upcoming trace, until the
            // wrong-path window fills or the branch resolves.  Like
            // real branches, wrong-path branches take an issue slot
            // but no RUU entry.
            unsigned fetched = 0;
            while (fetched < org_.width &&
                   wrong_count < cfg_.predictor.wrongPathWindow) {
                const std::size_t src =
                    (wrong_branch + 1 + wrong_count) % n;
                if (!trace.isBranch(src)) {
                    const unsigned bank =
                        banked ? unsigned(wrong_counter % org_.width)
                               : 0;
                    if (bank_count[bank] >= bank_cap[bank])
                        break;  // RUU (bank) full: fetch stalls
                    make_room();
                    ruu.push_back(Entry{ std::uint32_t(src), bank,
                                         false, true });
                    bank_count[bank]++;
                    ++wrong_counter;
                }
                if constexpr (kObs)
                    emitAudit(AuditPhase::kWrongPath, t, wrong_branch,
                              std::int32_t(wrong_count));
                ++wrong_count;
                ++result.wrongPathOps;
                ++fetched;
                progress = true;
            }
            if constexpr (kObs) {
                // Wrong-path fetch emits no kInsert events, so the
                // whole cycle reads as a mispredict stall in the run
                // metrics.
                front_blocked = true;
                front_cause = StallCause::kMispredict;
                front_op = wrong_branch;
            }
        } else {
            unsigned inserted = 0;
            while (inserted < org_.width && next_insert < n) {
                if (trace.isBranch(next_insert)) {
                    if (spec && predOk[next_insert]) {
                        // Correctly predicted: one issue slot, no
                        // stall, and the front end keeps issuing.
                        if constexpr (kObs)
                            emitAudit(AuditPhase::kInsert, t,
                                      next_insert);
                        end = std::max(end, t + 1);
                        open_next();
                        ++next_insert;
                        ++inserted;
                        progress = true;
                        continue;
                    }
                    if (spec) {
                        // Mispredicted: the front end redirects down
                        // the wrong path starting next cycle.  The
                        // branch itself takes an issue slot but no
                        // RUU entry; the resolve check at the top of
                        // the loop squashes when its condition
                        // arrives.
                        if constexpr (kObs)
                            emitAudit(AuditPhase::kInsert, t,
                                      next_insert);
                        wrong_mode = true;
                        wrong_branch = next_insert;
                        wrong_ts = t;
                        wrong_count = 0;
                        wrong_counter = insert_counter;
                        wrong_mark = ruu.size();
                        end = std::max(end, t + 1);
                        open_next();
                        ++next_insert;
                        progress = true;
                        break;      // issue stops at the mispredict
                    }
                    // Blocking: the branch holds the issue stage
                    // until its condition operand exists, then
                    // blocks issue for the branch time.  It never
                    // occupies an RUU slot.
                    const std::uint32_t prod =
                        trace.prodA(next_insert);
                    if (!operand_ready(prod, t)) {
                        if constexpr (kObs) {
                            if (inserted == 0) {
                                front_blocked = true;
                                front_cause = StallCause::kBranch;
                                front_op = next_insert;
                            }
                        }
                        const ClockCycle h = operand_hint(prod);
                        if (h != kUnknown)
                            hint = std::min(hint, h);
                        break;
                    }
                    if constexpr (kObs)
                        emitAudit(AuditPhase::kInsert, t,
                                  next_insert);
                    insert_blocked_until = t + cfg_.branchTime;
                    drain_from_squash = false;
                    end = std::max(end, insert_blocked_until);
                    open_next();
                    ++next_insert;
                    progress = true;
                    break;      // issue stops at a branch
                }

                const unsigned bank =
                    banked ? unsigned(insert_counter % org_.width) : 0;
                if (bank_count[bank] >= bank_cap[bank]) {
                    if constexpr (kObs) {
                        if (inserted == 0) {
                            front_blocked = true;
                            front_cause = StallCause::kBufferDrain;
                            front_op = next_insert;
                        }
                    }
                    break;      // RUU (bank) full: stall in order
                }

                if constexpr (kObs)
                    emitAudit(AuditPhase::kInsert, t, next_insert,
                              std::int32_t(bank));
                open_next();
                make_room();
                ruu.push_back(Entry{ std::uint32_t(next_insert), bank,
                                     false });
                bank_count[bank]++;
                ++insert_counter;
                ++next_insert;
                ++inserted;
                progress = true;
            }
        }

        // ---- advance time ------------------------------------------
        if (progress) {
            if constexpr (kObs) {
                // Back-end progress with a blocked front: the issue
                // units still lost this cycle.
                if (front_blocked)
                    emitStall(front_cause, t, 1, front_op);
            }
            last_event = t;
            t += 1;
        } else {
            const ClockCycle next =
                (hint == kUnknown || hint <= t) ? t + 1 : hint;
            if (next - last_event > watchdog)
                throw_watchdog(next);
            if constexpr (kObs) {
                if (front_blocked)
                    emitStall(front_cause, t, next - t, front_op);
            }
            t = next;
        }
    }

    result.cycles = end;
    result.steadyOpsSkipped = tracker.opsSkipped();
    if (spec)
        recordSpecRun(result.squashes, result.wrongPathOps,
                      mispredict_cycles);
    return result;
}

AuditRules
RuuSim::auditRules() const
{
    AuditRules rules;
    rules.rawAt = AuditRules::RawAt::kDispatch;
    rules.frontPhase = AuditPhase::kInsert;
    rules.execPhase = AuditPhase::kDispatch;
    rules.inOrderFront = true;
    rules.frontWidth = org_.width;
    rules.checkBranchFloor = true;
    rules.completionConsistent = true;
    rules.busCount =
        org_.busKind == BusKind::kSingle ? 1 : org_.width;
    rules.busKind = org_.busKind;
    rules.checkFuCaps = true;
    rules.fuCopies = org_.fuCopies;
    rules.memPorts = org_.memPorts;
    rules.windowCapacity = org_.ruuSize;
    rules.dispatchWidth =
        org_.busKind == BusKind::kSingle ? 1 : org_.width;
    rules.bankedDispatch = org_.busKind == BusKind::kPerUnit;
    rules.commitWidth = rules.dispatchWidth;
    rules.inOrderCommit = true;
    rules.predictor = cfg_.predictor;
    return rules;
}

} // namespace mfusim
