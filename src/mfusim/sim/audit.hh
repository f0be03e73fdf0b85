/**
 * @file
 * SimAudit: an opt-in cycle-level legality auditor.
 *
 * Every simulator computes a schedule — (issue, dispatch, complete)
 * cycles per op — under its organization's issue rules.  A bug in the
 * hazard logic does not crash; it silently shifts an issue rate.
 * SimAudit closes that gap: with an AuditSink attached, a simulator
 * emits one AuditEvent per pipeline event, an OpSchedule records
 * them, and an Auditor re-checks the *complete* recorded schedule
 * against an independent statement of the organization's invariants
 * (AuditRules):
 *
 *  - RAW: no op executes before its program-order producers' results
 *    are available (vector chaining adjusts availability to the
 *    producer's first element);
 *  - FU occupancy: concurrent busy intervals per functional-unit
 *    class never exceed the configured unit / memory-port counts
 *    under the configured discipline;
 *  - result busses: completion slots are exclusive per bus per cycle
 *    (per-unit, single, or crossbar-counted);
 *  - issue order and width: sequential-issue machines issue in
 *    buffer order; no machine exceeds its per-cycle issue width;
 *  - branches: nothing issues under a blocking branch's floor, and a
 *    blocking branch waits for its condition;
 *  - WAW-serial machines complete same-register writes in order;
 *  - windowed machines (RUU capacity, Tomasulo reservation stations,
 *    CDC 6600 waiting stations) never exceed their buffer sizes;
 *  - completion times are consistent with issue + latency +
 *    occupancy.
 *
 * A violation raises AuditError with a cycle-stamped dump of the ops
 * involved.  The auditor re-derives everything from the decoded
 * trace, so it shares no hazard code with the simulators — the two
 * implementations check each other.
 *
 * Cost model: emission is one predictable null-pointer test per
 * event when no sink is attached (audit-off runs are unchanged);
 * checking happens once, after the run.
 *
 * AuditSink is the simulators' one event sink.  It also receives
 * stall samples (obs/obs_sink.hh), which OpSchedule ignores and its
 * subclass PipeTraceRecorder (obs/pipe_trace.hh) keeps: a run that
 * is both audited and recorded stores its schedule once, in the
 * recorder, and the Auditor checks that recording.
 */

#ifndef MFUSIM_SIM_AUDIT_HH
#define MFUSIM_SIM_AUDIT_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mfusim/core/decoded_trace.hh"
#include "mfusim/core/error.hh"
#include "mfusim/core/types.hh"
#include "mfusim/funits/functional_unit.hh"
#include "mfusim/funits/memory_port.hh"
#include "mfusim/funits/result_bus.hh"
#include "mfusim/obs/obs_sink.hh"

namespace mfusim
{

/** Pipeline event kinds a simulator can emit. */
enum class AuditPhase : std::uint8_t
{
    kIssue,     //!< op left the issue stage (front event of most sims)
    kDispatch,  //!< op entered its functional unit
    kComplete,  //!< op's result became available
    kInsert,    //!< op entered the RUU window (RUU front event)
    kCommit,    //!< op retired from the RUU head
    kWrongPath, //!< a wrong-path op occupied a fetch slot (op =
                //!< the mispredicted branch, unit = slot ordinal)
    kSquash,    //!< a mispredicted branch resolved and flushed its
                //!< younger ops (op = the branch)
};

/** One cycle-stamped pipeline event. */
struct AuditEvent
{
    ClockCycle cycle;       //!< when the event happened
    std::uint64_t op;       //!< trace index of the op
    std::int32_t unit;      //!< bus / slot / bank id, or -1 if none
    AuditPhase phase;
};

/** Receiver of a simulator's event stream. */
class AuditSink
{
  public:
    virtual ~AuditSink() = default;

    virtual void onEvent(const AuditEvent &event) = 0;

    /** One attributed front-end stall; ignored unless overridden. */
    virtual void onStall(const StallSample &sample) { (void)sample; }
};

/**
 * One run's recorded per-op schedule: the cycles of each op's issue,
 * dispatch, complete, insert, commit and squash events, the unit ids
 * (slot / bank / bus) of the first four, and every wrong-path event.
 * The Auditor checks this recording; PipeTraceRecorder extends it
 * with stall samples to explain the same schedule.
 *
 * Recording never throws.  The first event that names an op past
 * the schedule, or repeats a phase already recorded for its op, is
 * kept aside (badEvent()) and not stored; the Auditor reports it
 * before any other check.
 */
class OpSchedule : public AuditSink
{
  public:
    /** Phase not reached by an op (e.g. dispatch on SimpleSim). */
    static constexpr ClockCycle kNoCycle = ~ClockCycle(0);

    /** An empty schedule for a trace of @p ops ops. */
    explicit OpSchedule(std::size_t ops);

    void onEvent(const AuditEvent &event) override;

    std::size_t opCount() const { return rows_.size(); }

    /** Op @p i's @p phase cycle, or kNoCycle (not for kWrongPath). */
    ClockCycle
    cycle(AuditPhase phase, std::size_t i) const
    {
        return at(i, slotOf(phase));
    }

    ClockCycle issue(std::size_t i) const { return at(i, kIssueSlot); }
    ClockCycle dispatch(std::size_t i) const { return at(i, kDispatchSlot); }
    ClockCycle complete(std::size_t i) const { return at(i, kCompleteSlot); }
    ClockCycle insert(std::size_t i) const { return at(i, kInsertSlot); }
    ClockCycle commit(std::size_t i) const { return at(i, kCommitSlot); }
    ClockCycle squash(std::size_t i) const { return at(i, kSquashSlot); }

    /** Issue slot, dispatch bank, result bus and window slot of op
     *  @p i's events; -1 if the event carried none. */
    std::int32_t issueUnit(std::size_t i) const { return unit(i, kIssueSlot); }
    std::int32_t
    dispatchUnit(std::size_t i) const
    {
        return unit(i, kDispatchSlot);
    }
    std::int32_t
    completeUnit(std::size_t i) const
    {
        return unit(i, kCompleteSlot);
    }
    std::int32_t
    insertUnit(std::size_t i) const
    {
        return unit(i, kInsertSlot);
    }

    /** Every kWrongPath event, in arrival order. */
    const std::vector<AuditEvent> &wrongPath() const { return wrongPath_; }

    /** The first out-of-range or repeated event, if any. */
    const std::optional<AuditEvent> &badEvent() const { return bad_; }

  private:
    /** A Row's per-op slots; the first kUnitSlots carry a unit id. */
    enum Slot : std::size_t
    {
        kIssueSlot,
        kDispatchSlot,
        kCompleteSlot,
        kInsertSlot,
        kCommitSlot,
        kSquashSlot,
        kNumSlots,
        kUnitSlots = kCommitSlot,
    };

    /** The slot of each phase but kWrongPath, which has none. */
    static constexpr Slot
    slotOf(AuditPhase phase)
    {
        switch (phase) {
          case AuditPhase::kIssue:    return kIssueSlot;
          case AuditPhase::kDispatch: return kDispatchSlot;
          case AuditPhase::kComplete: return kCompleteSlot;
          case AuditPhase::kInsert:   return kInsertSlot;
          case AuditPhase::kCommit:   return kCommitSlot;
          default:                    return kSquashSlot;  // kSquash
        }
    }

    ClockCycle
    at(std::size_t i, Slot slot) const
    {
        return rows_[i].cycle[slot];
    }
    std::int32_t
    unit(std::size_t i, Slot slot) const
    {
        return rows_[i].unit[slot];
    }

    struct Row
    {
        std::array<ClockCycle, kNumSlots> cycle;
        std::array<std::int32_t, kUnitSlots> unit;
    };

    std::vector<Row> rows_;
    std::vector<AuditEvent> wrongPath_;
    std::optional<AuditEvent> bad_;
};

/**
 * The organization legality rules an Auditor enforces, stated
 * independently of the simulator implementation.  Each simulator
 * overrides Simulator::auditRules() to describe itself.
 */
struct AuditRules
{
    /** Pipeline stage at which RAW hazards must be resolved. */
    enum class RawAt : std::uint8_t
    {
        kNone,      //!< no RAW checking (rules not modeled)
        kIssue,     //!< operands must exist at issue (scoreboard)
        kDispatch,  //!< operands must exist at dispatch (CDC,
                    //!< Tomasulo, RUU)
    };

    RawAt rawAt = RawAt::kNone;

    /** The per-op front event: kIssue, or kInsert for the RUU. */
    AuditPhase frontPhase = AuditPhase::kIssue;
    /** The stage whose cycle RAW / FU checks apply to. */
    AuditPhase execPhase = AuditPhase::kIssue;

    /** Front events are nondecreasing in program order. */
    bool inOrderFront = false;
    /** At most one front event per cycle (single-issue machines). */
    bool strictSingleFront = false;
    /** If nonzero, at most this many front events per cycle. */
    unsigned frontWidth = 0;

    /** Nothing issues below a blocking branch's issue + BR floor. */
    bool checkBranchFloor = false;
    /** Op i's front event waits for op i-1's completion (Simple). */
    bool serialExecution = false;
    /** Same-register writes complete in program order. */
    bool wawOrdered = false;
    /** complete == exec + latency + occupancy - 1 for every op. */
    bool completionConsistent = false;
    /** Vector chaining: consumers may start on the first element. */
    bool vectorChaining = false;

    /**
     * The branch model.  Disarmed: every branch blocks (issue after
     * its condition, floor at issue + branchTime).  Armed: the
     * auditor replays the prediction stream (precomputePredictions)
     * and enforces the squash-legality invariants instead — a
     * correctly predicted branch imposes no floor; a mispredicted
     * branch must emit exactly one kSquash at its resolve cycle
     * (PredictorSpec::resolveCycle), younger ops' front events obey
     * resolve + branchTime, and kWrongPath events stay within
     * [branch front + 1, resolve) and the wrong-path window.
     * Wrong-path ops are not trace ops, so they can never appear in
     * a kCommit event by construction.
     */
    PredictorSpec predictor;

    /** Result busses; 0 disables the exclusivity check. */
    unsigned busCount = 0;
    BusKind busKind = BusKind::kSingle;

    /** Check FU / memory-port occupancy against the counts below. */
    bool checkFuCaps = false;
    FuDiscipline fuDiscipline = FuDiscipline::kSegmented;
    MemDiscipline memDiscipline = MemDiscipline::kInterleaved;
    unsigned fuCopies = 1;
    unsigned memPorts = 1;

    /** RUU entries; live [insert, commit) intervals must fit. */
    unsigned windowCapacity = 0;
    /** Reservation stations per FU class (Tomasulo); 0 disables. */
    unsigned stationsPerFu = 0;
    /** Single waiting station per FU class (CDC 6600). */
    bool waitingStations = false;
    /** If nonzero, at most this many dispatch events per cycle. */
    unsigned dispatchWidth = 0;
    /** Restricted N-Bus: at most one dispatch per bank per cycle. */
    bool bankedDispatch = false;
    /** If nonzero, at most this many commit events per cycle. */
    unsigned commitWidth = 0;
    /** Commit events are nondecreasing in program order. */
    bool inOrderCommit = false;
};

/**
 * The reference checker: verifies every AuditRules invariant of one
 * recorded schedule against the decoded trace, throwing AuditError
 * on the first violation.
 */
class Auditor
{
  public:
    /** @p schedule must have been recorded over @p trace. */
    Auditor(const DecodedTrace &trace, const OpSchedule &schedule,
            const AuditRules &rules, std::string label = {});

    /** Run all checks over the schedule. @throws AuditError */
    void check() const;

  private:
    [[noreturn]] void fail(const std::string &check, ClockCycle cycle,
                           std::uint64_t op,
                           const std::string &detail) const;

    std::string describeOp(std::uint64_t i) const;
    bool predictedFree(std::uint64_t i) const;
    /** Cycle src of op i can read producer prod's result. */
    ClockCycle availableAt(std::uint64_t i, RegId src,
                           std::uint32_t prod) const;

    void checkEvents() const;
    void checkCompleteness() const;
    void checkFrontOrder() const;
    void checkRaw() const;
    void checkWawAndCompletion() const;
    void checkBusses() const;
    void checkFuOccupancy() const;
    void checkWindows() const;
    void checkDispatchCommit() const;
    void checkSpeculation() const;

    /** Resolve cycle of mispredicted branch @p i (front + preds). */
    ClockCycle resolveCycle(std::uint64_t i) const;

    static constexpr ClockCycle kNoCycle = OpSchedule::kNoCycle;

    const DecodedTrace &trace_;
    const OpSchedule &schedule_;
    AuditRules rules_;
    std::string label_;

    // Replayed predictions (empty unless the rules arm a predictor).
    std::vector<std::uint8_t> predOk_;

    /** The cycles AuditRules names as front and execution stages. */
    ClockCycle
    front(std::uint64_t i) const
    {
        return schedule_.cycle(rules_.frontPhase, i);
    }
    ClockCycle
    exec(std::uint64_t i) const
    {
        return schedule_.cycle(rules_.execPhase, i);
    }
};

/**
 * Process-wide "audit everything" request flag, consumed by
 * parallelPerLoopRates() (and hence every table bench) and the CLI.
 * Defaults to the MFUSIM_AUDIT environment variable (any nonempty
 * value but "0" enables).
 */
bool auditRequested();
void setAuditRequested(bool enabled);

} // namespace mfusim

#endif // MFUSIM_SIM_AUDIT_HH
