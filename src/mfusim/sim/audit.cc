/**
 * @file
 * SimAudit: the recorded schedule and its reference checker.
 *
 * The Auditor deliberately re-derives hazards and resource intervals
 * from the decoded trace instead of reusing FuPool / ResultBusSet:
 * an independent implementation is what makes the audit a check
 * rather than a tautology.
 */

#include "mfusim/sim/audit.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <map>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "mfusim/core/opcode.hh"
#include "mfusim/core/registers.hh"

namespace mfusim
{

OpSchedule::OpSchedule(std::size_t ops)
{
    Row empty;
    empty.cycle.fill(kNoCycle);
    empty.unit.fill(-1);
    rows_.assign(ops, empty);
}

void
OpSchedule::onEvent(const AuditEvent &event)
{
    if (event.op >= rows_.size()) {
        if (!bad_)
            bad_ = event;
        return;
    }
    if (event.phase == AuditPhase::kWrongPath) {
        // Many per branch; validated wholesale in checkSpeculation.
        wrongPath_.push_back(event);
        return;
    }
    const Slot slot = slotOf(event.phase);
    Row &row = rows_[event.op];
    if (row.cycle[slot] != kNoCycle) {
        if (!bad_)
            bad_ = event;
        return;
    }
    row.cycle[slot] = event.cycle;
    if (slot < kUnitSlots)
        row.unit[slot] = event.unit;
}

Auditor::Auditor(const DecodedTrace &trace, const OpSchedule &schedule,
                 const AuditRules &rules, std::string label)
    : trace_(trace), schedule_(schedule), rules_(rules),
      label_(std::move(label))
{
    if (schedule_.opCount() != trace_.size())
        throw Error("audit: a schedule of " +
                    std::to_string(schedule_.opCount()) +
                    " ops cannot check a trace of " +
                    std::to_string(trace_.size()));
    if (rules_.predictor.armed())
        predOk_ = precomputePredictions(trace_, rules_.predictor);
}

void
Auditor::fail(const std::string &check, ClockCycle cycle,
              std::uint64_t op, const std::string &detail) const
{
    const std::string tagged =
        label_.empty() ? check : label_ + ": " + check;
    throw AuditError(tagged, cycle, op,
                     detail + " [" + describeOp(op) + "]");
}

std::string
Auditor::describeOp(std::uint64_t i) const
{
    if (i >= trace_.size())
        return "op #" + std::to_string(i) + " (out of trace)";
    std::string text = mnemonicOf(trace_.op(i));
    text += ' ';
    text += regName(trace_.dst(i));
    text += ',';
    text += regName(trace_.srcA(i));
    text += ',';
    text += regName(trace_.srcB(i));
    text += " fu=";
    text += fuClassName(trace_.fu(i));
    text += " lat=" + std::to_string(trace_.latency(i));
    text += " occ=" + std::to_string(trace_.occupancy(i));
    const auto stamp = [](const char *tag, ClockCycle c) {
        std::string out;
        if (c != kNoCycle) {
            out = ' ';
            out += tag;
            out += std::to_string(c);
        }
        return out;
    };
    text += stamp("issue@", schedule_.issue(i));
    text += stamp("insert@", schedule_.insert(i));
    text += stamp("dispatch@", schedule_.dispatch(i));
    text += stamp("complete@", schedule_.complete(i));
    text += stamp("commit@", schedule_.commit(i));
    return text;
}

bool
Auditor::predictedFree(std::uint64_t i) const
{
    return rules_.predictor.armed() && trace_.isBranch(i) &&
        predOk_[i] != 0;
}

ClockCycle
Auditor::resolveCycle(std::uint64_t i) const
{
    // The simulators' one resolve rule: when the condition register
    // materializes, no earlier than the cycle after the branch enters
    // the front end if the window fetched anything in between.
    const std::uint32_t prod = trace_.prodA(i);
    const ClockCycle cond = prod != DecodedTrace::kNoProducer &&
            schedule_.complete(prod) != kNoCycle
        ? schedule_.complete(prod)
        : 0;
    return rules_.predictor.resolveCycle(front(i), cond);
}

ClockCycle
Auditor::availableAt(std::uint64_t i, RegId src,
                     std::uint32_t prod) const
{
    const ClockCycle done = schedule_.complete(prod);
    // Chaining: a vector consumer of a vector source may start once
    // the producer's first element exists, one latency after its
    // dispatch: complete - occupancy + 2.
    if (rules_.vectorChaining && trace_.isVector(i) &&
        src != kNoReg && classOf(src) == RegClass::V &&
        trace_.occupancy(prod) > 1) {
        return done - trace_.occupancy(prod) + 2;
    }
    return done;
}

void
Auditor::check() const
{
    checkEvents();
    checkCompleteness();
    checkFrontOrder();
    checkRaw();
    checkWawAndCompletion();
    checkBusses();
    checkFuOccupancy();
    checkWindows();
    checkDispatchCommit();
    checkSpeculation();
}

void
Auditor::checkEvents() const
{
    const std::optional<AuditEvent> &bad = schedule_.badEvent();
    if (!bad)
        return;
    if (bad->op >= trace_.size()) {
        throw AuditError(label_.empty() ? "event-range"
                                        : label_ + ": event-range",
                         bad->cycle, bad->op,
                         "event references an op outside the trace (" +
                             std::to_string(trace_.size()) + " ops)");
    }
    fail("duplicate-event", bad->cycle, bad->op,
         "op already has an event of this phase at cycle " +
             std::to_string(schedule_.cycle(bad->phase, bad->op)));
}

void
Auditor::checkCompleteness() const
{
    const std::size_t n = trace_.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (front(i) == kNoCycle)
            fail("missing-event", 0, i, "op was never issued");
        if (trace_.isBranch(i))
            continue;       // branches may produce no completion
        if (schedule_.complete(i) == kNoCycle)
            fail("missing-event", 0, i, "op never completed");
        if (rules_.execPhase == AuditPhase::kDispatch &&
            schedule_.dispatch(i) == kNoCycle) {
            fail("missing-event", 0, i, "op was never dispatched");
        }
        if (rules_.windowCapacity > 0 &&
            (schedule_.insert(i) == kNoCycle || schedule_.commit(i) == kNoCycle)) {
            fail("missing-event", 0, i,
                 "op never passed through the RUU window");
        }
    }
}

void
Auditor::checkFrontOrder() const
{
    const std::size_t n = trace_.size();
    ClockCycle prev = 0;
    bool have_prev = false;
    ClockCycle floor = 0;
    std::uint64_t floor_branch = 0;
    std::map<ClockCycle, unsigned> per_cycle;

    for (std::size_t i = 0; i < n; ++i) {
        const ClockCycle f = front(i);
        if (rules_.inOrderFront && have_prev) {
            const bool bad = rules_.strictSingleFront ? f <= prev
                                                      : f < prev;
            if (bad) {
                fail("in-order-issue", f, i,
                     "issues at cycle " + std::to_string(f) +
                         ", not after its program-order predecessor"
                         " (cycle " +
                         std::to_string(prev) + ")");
            }
        }
        if (rules_.frontWidth > 0 &&
            ++per_cycle[f] > rules_.frontWidth) {
            fail("issue-width", f, i,
                 "more than " + std::to_string(rules_.frontWidth) +
                     " ops issued in one cycle");
        }
        if (rules_.serialExecution && i > 0 &&
            schedule_.complete(i - 1) != kNoCycle && f < schedule_.complete(i - 1)) {
            fail("serial-overlap", f, i,
                 "enters execution before op #" +
                     std::to_string(i - 1) + " leaves (cycle " +
                     std::to_string(schedule_.complete(i - 1)) + ")");
        }
        if (rules_.checkBranchFloor && f < floor) {
            fail("branch-floor", f, i,
                 "issues under the floor (cycle " +
                     std::to_string(floor) +
                     ") imposed by blocking branch #" +
                     std::to_string(floor_branch));
        }
        if (trace_.isBranch(i) && !predictedFree(i)) {
            if (rules_.predictor.armed()) {
                // Speculative mispredict: the branch issues without
                // waiting for its condition; the floor for younger
                // right-path ops starts at the squash, one redirect
                // (branchTime) later.
                const ClockCycle resolve =
                    resolveCycle(i) + trace_.config().branchTime;
                if (resolve > floor) {
                    floor = resolve;
                    floor_branch = i;
                }
                prev = f;
                have_prev = true;
                continue;
            }
            if (rules_.rawAt != AuditRules::RawAt::kNone) {
                const std::uint32_t prod = trace_.prodA(i);
                if (prod != DecodedTrace::kNoProducer &&
                    schedule_.complete(prod) != kNoCycle &&
                    f < schedule_.complete(prod)) {
                    fail("branch-condition-raw", f, i,
                         "blocking branch issues before its condition"
                         " exists (producer: " +
                             describeOp(prod) + ")");
                }
            }
            const ClockCycle resolve =
                f + trace_.config().branchTime;
            if (resolve > floor) {
                floor = resolve;
                floor_branch = i;
            }
        }
        prev = f;
        have_prev = true;
    }
}

void
Auditor::checkRaw() const
{
    if (rules_.rawAt == AuditRules::RawAt::kNone)
        return;
    const std::size_t n = trace_.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (trace_.isBranch(i))
            continue;       // condition reads checked at the front
        const ClockCycle e = exec(i);
        const std::array<std::pair<RegId, std::uint32_t>, 2> sources{
            { { trace_.srcA(i), trace_.prodA(i) },
              { trace_.srcB(i), trace_.prodB(i) } }
        };
        for (const auto &[src, prod] : sources) {
            if (prod == DecodedTrace::kNoProducer)
                continue;
            if (schedule_.complete(prod) == kNoCycle)
                continue;   // producer legality caught elsewhere
            const ClockCycle avail = availableAt(i, src, prod);
            if (e < avail) {
                fail("raw-hazard", e, i,
                     "reads " + regName(src) + " at cycle " +
                         std::to_string(e) +
                         " but its value only exists at cycle " +
                         std::to_string(avail) + " (producer: " +
                         describeOp(prod) + ")");
            }
        }
    }
}

void
Auditor::checkWawAndCompletion() const
{
    const std::size_t n = trace_.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (trace_.isBranch(i))
            continue;
        if (rules_.completionConsistent) {
            const ClockCycle e = exec(i);
            const ClockCycle expect = e + trace_.latency(i) +
                trace_.occupancy(i) - 1;
            if (schedule_.complete(i) != expect) {
                fail("completion-latency", schedule_.complete(i), i,
                     "completes at cycle " +
                         std::to_string(schedule_.complete(i)) +
                         " instead of exec + latency + occupancy - 1"
                         " = " +
                         std::to_string(expect));
            }
        }
        if (rules_.wawOrdered) {
            const std::uint32_t p = trace_.prevWriter(i);
            if (p != DecodedTrace::kNoProducer &&
                schedule_.complete(p) != kNoCycle &&
                schedule_.complete(i) < schedule_.complete(p)) {
                fail("waw-order", schedule_.complete(i), i,
                     "writes " + regName(trace_.dst(i)) +
                         " before the program-order earlier writer"
                         " (op: " +
                         describeOp(p) + ")");
            }
        }
    }
}

void
Auditor::checkBusses() const
{
    if (rules_.busCount == 0)
        return;
    const std::size_t n = trace_.size();
    // (bus, cycle) -> first op holding the slot.
    std::map<std::pair<std::int32_t, ClockCycle>, std::uint64_t>
        per_unit;
    // cycle -> (count, first op) for the counted kinds.
    std::map<ClockCycle, std::pair<unsigned, std::uint64_t>> per_cycle;

    for (std::size_t i = 0; i < n; ++i) {
        const ClockCycle c = schedule_.complete(i);
        const std::int32_t unit = schedule_.completeUnit(i);
        if (c == kNoCycle || unit < 0)
            continue;       // result uses no bus (vector / no result)
        if (rules_.busKind == BusKind::kPerUnit) {
            if (unsigned(unit) >= rules_.busCount) {
                fail("result-bus-range", c, i,
                     "uses bus " + std::to_string(unit) +
                         " of a " + std::to_string(rules_.busCount) +
                         "-bus machine");
            }
            const auto [it, fresh] =
                per_unit.emplace(std::make_pair(unit, c), i);
            if (!fresh) {
                fail("result-bus-conflict", c, i,
                     "bus " + std::to_string(unit) +
                         " already carries a result this cycle"
                         " (op: " +
                         describeOp(it->second) + ")");
            }
        } else {
            auto &slot = per_cycle[c];
            if (slot.first == 0)
                slot.second = i;
            if (++slot.first > rules_.busCount) {
                fail("result-bus-conflict", c, i,
                     std::to_string(slot.first) +
                         " results in one cycle on " +
                         std::to_string(rules_.busCount) +
                         " bus(ses) (first op: " +
                         describeOp(slot.second) + ")");
            }
        }
    }
}

void
Auditor::checkFuOccupancy() const
{
    if (!rules_.checkFuCaps)
        return;
    struct Interval
    {
        ClockCycle start, end;
        std::uint64_t op;
    };
    std::array<std::vector<Interval>, kNumFuClasses> per_class;

    const std::size_t n = trace_.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (trace_.isBranch(i) || trace_.isTransfer(i))
            continue;       // no pool resource
        const FuClass fu = trace_.fu(i);
        const ClockCycle e = exec(i);
        if (e == kNoCycle)
            continue;
        const unsigned latency = trace_.latency(i);
        const unsigned occupancy = trace_.occupancy(i);
        unsigned busy;
        if (fu == FuClass::kMemory) {
            busy = rules_.memDiscipline == MemDiscipline::kSerial
                       ? latency + occupancy - 1
                       : occupancy;
        } else {
            busy = rules_.fuDiscipline == FuDiscipline::kSegmented
                       ? occupancy
                       : std::max(latency, occupancy);
        }
        per_class[unsigned(fu)].push_back({ e, e + busy, i });
    }

    for (unsigned fu = 0; fu < kNumFuClasses; ++fu) {
        auto &intervals = per_class[fu];
        if (intervals.empty())
            continue;
        const unsigned cap = FuClass(fu) == FuClass::kMemory
                                 ? rules_.memPorts
                                 : rules_.fuCopies;
        std::sort(intervals.begin(), intervals.end(),
                  [](const Interval &a, const Interval &b) {
                      return a.start < b.start;
                  });
        std::priority_queue<ClockCycle, std::vector<ClockCycle>,
                            std::greater<ClockCycle>>
            busy_until;
        for (const Interval &iv : intervals) {
            while (!busy_until.empty() &&
                   busy_until.top() <= iv.start) {
                busy_until.pop();
            }
            if (busy_until.size() >= cap) {
                fail("fu-occupancy", iv.start, iv.op,
                     std::string(fuClassName(FuClass(fu))) +
                         " already has " + std::to_string(cap) +
                         " busy unit(s) at cycle " +
                         std::to_string(iv.start));
            }
            busy_until.push(iv.end);
        }
    }
}

void
Auditor::checkWindows() const
{
    struct Interval
    {
        ClockCycle start, end;
        std::uint64_t op;
    };
    const std::size_t n = trace_.size();

    const auto sweep = [this](std::vector<Interval> &intervals,
                              unsigned cap, const char *check,
                              const std::string &what) {
        std::sort(intervals.begin(), intervals.end(),
                  [](const Interval &a, const Interval &b) {
                      return a.start < b.start;
                  });
        std::priority_queue<ClockCycle, std::vector<ClockCycle>,
                            std::greater<ClockCycle>>
            live;
        for (const Interval &iv : intervals) {
            while (!live.empty() && live.top() <= iv.start)
                live.pop();
            if (live.size() >= cap) {
                fail(check, iv.start, iv.op,
                     what + " already holds " + std::to_string(cap) +
                         " op(s) at cycle " +
                         std::to_string(iv.start));
            }
            live.push(iv.end);
        }
    };

    if (rules_.windowCapacity > 0) {
        std::vector<Interval> window;
        for (std::size_t i = 0; i < n; ++i) {
            if (trace_.isBranch(i))
                continue;   // branches never occupy the RUU
            if (schedule_.insert(i) == kNoCycle || schedule_.commit(i) == kNoCycle)
                continue;
            window.push_back({ schedule_.insert(i), schedule_.commit(i), i });
        }
        sweep(window, rules_.windowCapacity, "ruu-capacity",
              "the RUU (" + std::to_string(rules_.windowCapacity) +
                  " entries)");
    }

    if (rules_.stationsPerFu > 0 || rules_.waitingStations) {
        std::array<std::vector<Interval>, kNumFuClasses> stations;
        for (std::size_t i = 0; i < n; ++i) {
            if (trace_.isBranch(i) || trace_.isTransfer(i))
                continue;
            if (rules_.waitingStations) {
                // CDC 6600: the single station is held from issue
                // until the cycle after dispatch.
                if (schedule_.issue(i) == kNoCycle || schedule_.dispatch(i) == kNoCycle)
                    continue;
                stations[unsigned(trace_.fu(i))].push_back(
                    { schedule_.issue(i), schedule_.dispatch(i) + 1, i });
            } else {
                // Tomasulo: a station is held from issue until the
                // result broadcast.
                if (schedule_.issue(i) == kNoCycle || schedule_.complete(i) == kNoCycle)
                    continue;
                stations[unsigned(trace_.fu(i))].push_back(
                    { schedule_.issue(i), schedule_.complete(i), i });
            }
        }
        const unsigned cap =
            rules_.waitingStations ? 1 : rules_.stationsPerFu;
        for (unsigned fu = 0; fu < kNumFuClasses; ++fu) {
            if (stations[fu].empty())
                continue;
            sweep(stations[fu], cap,
                  rules_.waitingStations ? "waiting-station"
                                         : "reservation-stations",
                  std::string(fuClassName(FuClass(fu))) +
                      "'s station pool");
        }
    }
}

void
Auditor::checkDispatchCommit() const
{
    const std::size_t n = trace_.size();
    if (rules_.dispatchWidth > 0 || rules_.bankedDispatch) {
        std::map<ClockCycle, unsigned> per_cycle;
        std::map<std::pair<std::int32_t, ClockCycle>, std::uint64_t>
            per_bank;
        for (std::size_t i = 0; i < n; ++i) {
            const ClockCycle d = schedule_.dispatch(i);
            if (d == kNoCycle)
                continue;
            if (rules_.dispatchWidth > 0 &&
                ++per_cycle[d] > rules_.dispatchWidth) {
                fail("dispatch-width", d, i,
                     "more than " +
                         std::to_string(rules_.dispatchWidth) +
                         " dispatches in one cycle");
            }
            if (rules_.bankedDispatch) {
                const auto [it, fresh] = per_bank.emplace(
                    std::make_pair(schedule_.dispatchUnit(i), d), i);
                if (!fresh) {
                    fail("dispatch-bank", d, i,
                         "bank " +
                             std::to_string(schedule_.dispatchUnit(i)) +
                             " already dispatched this cycle (op: " +
                             describeOp(it->second) + ")");
                }
            }
        }
    }
    if (rules_.commitWidth > 0 || rules_.inOrderCommit) {
        std::map<ClockCycle, unsigned> per_cycle;
        ClockCycle prev = 0;
        bool have_prev = false;
        for (std::size_t i = 0; i < n; ++i) {
            const ClockCycle c = schedule_.commit(i);
            if (c == kNoCycle)
                continue;
            if (rules_.commitWidth > 0 &&
                ++per_cycle[c] > rules_.commitWidth) {
                fail("commit-width", c, i,
                     "more than " +
                         std::to_string(rules_.commitWidth) +
                         " commits in one cycle");
            }
            if (rules_.inOrderCommit && have_prev && c < prev) {
                fail("in-order-commit", c, i,
                     "retires before its program-order predecessor"
                     " (cycle " +
                         std::to_string(prev) + ")");
            }
            prev = c;
            have_prev = true;
        }
    }
}

void
Auditor::checkSpeculation() const
{
    const std::size_t n = trace_.size();
    if (!rules_.predictor.armed()) {
        // A disarmed organization must not emit speculation events.
        if (!schedule_.wrongPath().empty()) {
            const AuditEvent &ev = schedule_.wrongPath().front();
            fail("unexpected-wrong-path", ev.cycle, ev.op,
                 "wrong-path event without an armed predictor");
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (schedule_.squash(i) != kNoCycle)
                fail("unexpected-squash", schedule_.squash(i), i,
                     "squash event without an armed predictor");
        }
        return;
    }

    // Squash legality: exactly one squash per mispredicted branch,
    // at its resolve cycle; nothing else squashes.
    for (std::size_t i = 0; i < n; ++i) {
        const bool mispredicted =
            trace_.isBranch(i) && predOk_[i] == 0;
        if (!mispredicted) {
            if (schedule_.squash(i) != kNoCycle)
                fail("squash-legality", schedule_.squash(i), i,
                     "squash on an op that is not a mispredicted"
                     " branch");
            continue;
        }
        const ClockCycle resolve = resolveCycle(i);
        if (schedule_.squash(i) == kNoCycle)
            fail("squash-legality", resolve, i,
                 "mispredicted branch never squashed");
        if (schedule_.squash(i) != resolve) {
            fail("squash-legality", schedule_.squash(i), i,
                 "squashes at cycle " + std::to_string(schedule_.squash(i)) +
                     " instead of its resolve cycle " +
                     std::to_string(resolve));
        }
    }

    // Wrong-path discipline: every wrong-path slot belongs to a
    // mispredicted branch, lives strictly between the branch's front
    // event and its squash, and the per-branch count respects the
    // fetch window.  (Wrong-path ops are synthesized, not trace ops,
    // so they structurally cannot commit — kCommit events are
    // range-checked against the trace.)
    std::vector<unsigned> per_branch(n, 0);
    for (const AuditEvent &ev : schedule_.wrongPath()) {
        const std::uint64_t b = ev.op;
        if (!trace_.isBranch(b) || predOk_[b] != 0)
            fail("wrong-path-legality", ev.cycle, b,
                 "wrong-path op charged to an op that is not a"
                 " mispredicted branch");
        const ClockCycle f = front(b);
        if (ev.cycle <= f || ev.cycle >= schedule_.squash(b)) {
            fail("wrong-path-legality", ev.cycle, b,
                 "wrong-path op outside (" + std::to_string(f) +
                     ", " + std::to_string(schedule_.squash(b)) +
                     "), the branch's fetch..squash span");
        }
        if (++per_branch[b] > rules_.predictor.wrongPathWindow) {
            fail("wrong-path-legality", ev.cycle, b,
                 "more than " +
                     std::to_string(rules_.predictor.wrongPathWindow) +
                     " wrong-path ops for one mispredict");
        }
    }
}

namespace
{

// -1 = not yet decided (consult the environment once).
std::atomic<int> g_audit_requested{ -1 };

} // namespace

bool
auditRequested()
{
    const int cached = g_audit_requested.load();
    if (cached >= 0)
        return cached != 0;
    const char *env = std::getenv("MFUSIM_AUDIT");
    const bool on = env != nullptr && *env != '\0' &&
        std::string(env) != "0";
    g_audit_requested.store(on ? 1 : 0);
    return on;
}

void
setAuditRequested(bool enabled)
{
    g_audit_requested.store(enabled ? 1 : 0);
}

} // namespace mfusim
