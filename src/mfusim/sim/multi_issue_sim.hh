/**
 * @file
 * Multiple issue units over an instruction buffer (Tables 3-6).
 *
 * The machine fetches a block of `width` consecutive instructions
 * into an instruction buffer examined in parallel by `width` issue
 * units.  The buffer is refilled only after every instruction in it
 * has issued — except that a taken branch squashes the rest of the
 * buffer and refills from the target once it resolves.
 *
 * Two issue disciplines (paper sections 5.1 and 5.2):
 *
 *  - sequential: "If any instruction cannot issue, succeeding
 *    instructions cannot be issued even if their resources are
 *    available."
 *  - out-of-order: any instruction in the buffer may issue once it
 *    has no RAW or WAW hazard with the (unissued) instructions that
 *    precede it in the buffer and no hazard with in-flight
 *    instructions.  No instruction may issue past an unissued
 *    branch (the machine does not speculate).
 *
 * An armed predictor (MachineConfig::predictor) replaces the
 * blocking front end: a correctly predicted branch costs one issue
 * slot and the buffer behind it holds the right path; a mispredicted
 * one truncates the buffer, fetches down the wrong path until it
 * resolves, and squashes.
 *
 * The execution resources are always the CRAY-like complement
 * (segmented units, interleaved memory): "we restrict further
 * experiments to machines with fully segmented functional units and
 * an interleaved memory system."
 *
 * Result busses follow BusKind: issue unit i is the buffer slot i,
 * and an instruction reserves its bus for its completion cycle at
 * issue (N-Bus: slot's own bus; 1-Bus: the shared bus; X-Bar: any
 * free bus).
 */

#ifndef MFUSIM_SIM_MULTI_ISSUE_SIM_HH
#define MFUSIM_SIM_MULTI_ISSUE_SIM_HH

#include "mfusim/funits/result_bus.hh"
#include "mfusim/sim/simulator.hh"

namespace mfusim
{

/** Organization of the multiple-issue buffer machine. */
struct MultiIssueConfig
{
    unsigned width = 2;             //!< issue units == buffer size
    bool outOfOrder = false;        //!< section 5.2 vs 5.1
    BusKind busKind = BusKind::kPerUnit;
    /**
     * Also block on WAR hazards against earlier unissued buffer
     * entries.  The paper ignores WAR ("not important in a single
     * processor situation"); real out-of-order issue with issue-time
     * operand read would need this.  Ablation knob, default off.
     */
    bool blockWar = false;

    /** Copies of each functional unit (extension; paper: 1). */
    unsigned fuCopies = 1;
    /** Independent memory ports (extension; paper: 1). */
    unsigned memPorts = 1;

    /**
     * Livelock watchdog threshold: cycles without any issue event
     * (while instructions remain) before the run aborts with a
     * diagnostic SimError.  0 = kDefaultWatchdogCycles.
     */
    ClockCycle watchdogCycles = 0;
};

/**
 * The multiple-issue instruction-buffer machine.
 *
 * The issue order decides how a window is scheduled:
 *
 *  - In-order issue computes each op's issue cycle directly.  An op
 *    can issue only after every earlier op of its window, so its
 *    cycle is the least cycle, no earlier than its predecessor's
 *    (one later across a window refill), that satisfies its
 *    dependences, the branch floor, its functional unit and its
 *    result bus — a fixpoint of those four constraints, found by
 *    jumping from each failing check to the exact cycle it clears.
 *    Nothing later in program order can change that cycle, so no
 *    window is ever rescanned.  The instrumented run charges the
 *    same cycles to the same causes as a cycle-by-cycle scan would:
 *    stalls start one cycle after the previous issue, and each
 *    interval goes to the first failing check in the order
 *    dependences/floor, functional unit, result bus.
 *  - Out-of-order issue rescans the window pass by pass: which op
 *    issues next depends on timing, so there is no per-op fixpoint.
 *    Each pass issues every op that has cleared its buffer-order,
 *    dependence and structural hazards, then jumps to the next cycle
 *    at which anything can change.
 */
class MultiIssueSim : public Simulator
{
  public:
    /** @throws ConfigError on a zero width / unit / port count. */
    MultiIssueSim(const MultiIssueConfig &org, const MachineConfig &cfg);

    using Simulator::run;
    SimResult run(const DecodedTrace &trace) override;
    std::string name() const override;
    std::string cacheKey() const override;
    const MachineConfig &config() const override { return cfg_; }
    AuditRules auditRules() const override;

  private:
    /**
     * run() for one issue order, so each schedule compiles alone.
     * kObs emits the audit event and stall-sample stream; it
     * requires an attached sink.
     *
     * @throws SimError on a trace with vector instructions (the
     *         paper's multiple-issue study is scalar-only).
     */
    template <bool kObs, bool kOutOfOrder>
    SimResult runWindows(const DecodedTrace &trace) const;

    MultiIssueConfig org_;
    MachineConfig cfg_;
};

} // namespace mfusim

#endif // MFUSIM_SIM_MULTI_ISSUE_SIM_HH
