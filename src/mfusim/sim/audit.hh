/**
 * @file
 * SimAudit: an opt-in cycle-level legality auditor.
 *
 * Every simulator computes a schedule — (issue, dispatch, complete)
 * cycles per op — under its organization's issue rules.  A bug in the
 * hazard logic does not crash; it silently shifts an issue rate.
 * SimAudit closes that gap: with an AuditSink attached, a simulator
 * emits one AuditEvent per pipeline event, and an Auditor re-checks
 * the *complete* schedule against an independent statement of the
 * organization's invariants (AuditRules):
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
 */

#ifndef MFUSIM_SIM_AUDIT_HH
#define MFUSIM_SIM_AUDIT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mfusim/core/decoded_trace.hh"
#include "mfusim/core/error.hh"
#include "mfusim/core/types.hh"
#include "mfusim/funits/functional_unit.hh"
#include "mfusim/funits/memory_port.hh"
#include "mfusim/funits/result_bus.hh"

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

/** Receiver of a simulator's audit event stream. */
class AuditSink
{
  public:
    virtual ~AuditSink() = default;

    virtual void onEvent(const AuditEvent &event) = 0;
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
 * The reference checker: buffers a simulator's event stream into
 * per-op schedules and, in finish(), verifies every AuditRules
 * invariant against the decoded trace, throwing AuditError on the
 * first violation.  Single-use: one Auditor per run.
 */
class Auditor : public AuditSink
{
  public:
    Auditor(const DecodedTrace &trace, const AuditRules &rules,
            std::string label = {});

    void onEvent(const AuditEvent &event) override;

    /** Run all checks over the recorded schedule. @throws AuditError */
    void finish();

    std::uint64_t eventCount() const { return eventCount_; }

  private:
    [[noreturn]] void fail(const std::string &check, ClockCycle cycle,
                           std::uint64_t op,
                           const std::string &detail) const;

    std::string describeOp(std::uint64_t i) const;
    bool predictedFree(std::uint64_t i) const;
    /** Cycle src of op i can read producer prod's result. */
    ClockCycle availableAt(std::uint64_t i, RegId src,
                           std::uint32_t prod) const;

    void checkCompleteness();
    void checkFrontOrder();
    void checkRaw();
    void checkWawAndCompletion();
    void checkBusses();
    void checkFuOccupancy();
    void checkWindows();
    void checkDispatchCommit();
    void checkSpeculation();

    /** Resolve cycle of mispredicted branch @p i (front + preds). */
    ClockCycle resolveCycle(std::uint64_t i) const;

    const DecodedTrace &trace_;
    AuditRules rules_;
    std::string label_;
    std::uint64_t eventCount_ = 0;

    // Per-op event cycles (kNoCycle = not seen) and unit ids.
    static constexpr ClockCycle kNoCycle = ~ClockCycle(0);
    std::vector<ClockCycle> issue_, dispatch_, complete_, insert_,
        commit_;
    std::vector<std::int32_t> completeUnit_, dispatchUnit_,
        insertUnit_;

    // Speculation stream: replayed predictions (empty unless the
    // rules arm a predictor), per-op squash cycles, and the raw
    // wrong-path events for checkSpeculation().
    std::vector<std::uint8_t> predOk_;
    std::vector<ClockCycle> squash_;
    std::vector<AuditEvent> wrongPath_;

    ClockCycle front(std::uint64_t i) const;
    ClockCycle exec(std::uint64_t i) const;
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
