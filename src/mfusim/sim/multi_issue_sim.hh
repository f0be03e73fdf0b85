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

#include "mfusim/funits/fu_pool.hh"
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

    /** Organization knobs (the batched lockstep kernel reads them). */
    const MultiIssueConfig &org() const { return org_; }

  private:
    /**
     * run() body, compiled once with audit emission and once without
     * so the audit-off issue loop carries no per-event branches.
     */
    template <bool kObs>
    SimResult runImpl(const DecodedTrace &trace);

    MultiIssueConfig org_;
    MachineConfig cfg_;
};

} // namespace mfusim

#endif // MFUSIM_SIM_MULTI_ISSUE_SIM_HH
