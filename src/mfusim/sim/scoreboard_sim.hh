/**
 * @file
 * Single-issue machines with execution-stage overlap (Table 1).
 *
 * One instruction may issue per cycle, in order.  Issue blocks on:
 *
 *  - RAW hazards: a source register written by an in-flight
 *    instruction is not yet available;
 *  - WAW hazards: the destination register is still reserved by an
 *    in-flight writer (the CRAY-1 register-reservation rule);
 *  - structural hazards: the needed functional unit or memory port
 *    cannot accept a new operation;
 *  - result-bus conflicts: another in-flight instruction already owns
 *    the (single) result bus in the cycle this one would complete;
 *  - branches: a branch issues once its condition register is
 *    available and then blocks the issue stage for the configured
 *    branch time (5 slow / 2 fast).  An armed predictor (zero
 *    wrong-path window only: one issue unit fetches nothing past a
 *    branch) lets a correctly predicted branch cost one issue slot.
 *
 * Three of the paper's machines are configurations of this model:
 *
 *  - SerialMemory: serial memory, non-segmented functional units;
 *  - NonSegmented: interleaved memory, non-segmented units (CDC-6600
 *    flavor);
 *  - CRAY-like:    interleaved memory, segmented units.
 */

#ifndef MFUSIM_SIM_SCOREBOARD_SIM_HH
#define MFUSIM_SIM_SCOREBOARD_SIM_HH

#include "mfusim/funits/fu_pool.hh"
#include "mfusim/sim/simulator.hh"

namespace mfusim
{

/** Organization knobs of the single-issue overlap machines. */
struct ScoreboardConfig
{
    FuDiscipline fuDiscipline = FuDiscipline::kSegmented;
    MemDiscipline memDiscipline = MemDiscipline::kInterleaved;
    /**
     * Model single-result-bus completion conflicts (two in-flight
     * instructions may not complete in the same cycle).  Matches the
     * CRAY-1 issue rule and keeps the single-issue machines exactly
     * consistent with the 1-Bus multiple-issue machine at width 1.
     */
    bool modelResultBus = true;

    /**
     * CRAY-1 vector chaining (extension; only affects traces with
     * vector instructions): a vector consumer may start as soon as
     * its producer's first element exists rather than waiting for
     * the last.
     */
    bool vectorChaining = true;

    /** Copies of each functional unit (extension; paper: 1). */
    unsigned fuCopies = 1;
    /** Independent memory ports (extension; paper: 1). */
    unsigned memPorts = 1;

    /** The paper's "SerialMemory" machine. */
    static ScoreboardConfig serialMemory();
    /** The paper's "NonSegmented" machine. */
    static ScoreboardConfig nonSegmented();
    /** The paper's "CRAY-like" machine. */
    static ScoreboardConfig crayLike();
};

/** The single-issue scoreboarded machine. */
class ScoreboardSim : public Simulator
{
  public:
    /** @throws ConfigError on zero unit or port counts. */
    ScoreboardSim(const ScoreboardConfig &org,
                  const MachineConfig &cfg);

    using Simulator::run;
    SimResult run(const DecodedTrace &trace) override;
    std::string name() const override;
    std::string cacheKey() const override;
    const MachineConfig &config() const override { return cfg_; }
    AuditRules auditRules() const override;

  private:
    // The issue loop is compiled twice: kObs emits the audit event
    // and stall-sample stream; it requires an attached sink.
    template <bool kObs> SimResult runImpl(const DecodedTrace &trace) const;

    ScoreboardConfig org_;
    MachineConfig cfg_;
};

} // namespace mfusim

#endif // MFUSIM_SIM_SCOREBOARD_SIM_HH
