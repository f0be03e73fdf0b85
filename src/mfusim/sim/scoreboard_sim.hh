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

#include <array>
#include <cstdint>
#include <vector>

#include "mfusim/core/registers.hh"
#include "mfusim/funits/fu_pool.hh"
#include "mfusim/funits/result_bus.hh"
#include "mfusim/sim/simulator.hh"
#include "mfusim/sim/steady_state.hh"

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

/**
 * The single-issue scoreboarded machine.
 *
 * One run is one Lane advanced over the whole trace; the batched
 * sweep kernel (sim/batched.hh) advances many lanes over one trace
 * block by block through the same advance().
 */
class ScoreboardSim : public Simulator
{
  public:
    /** @throws ConfigError on zero unit or port counts. */
    ScoreboardSim(const ScoreboardConfig &org,
                  const MachineConfig &cfg);

    /** The whole timing state of one run over one trace. */
    struct Lane
    {
        /**
         * A run of @p sim over @p trace, at op 0.  Steady state is
         * tracked unless it is disabled, a sink is attached (the
         * event stream must be complete) or the predictor has
         * history (it mispredicts aperiodically).
         */
        Lane(const ScoreboardSim &sim, const DecodedTrace &trace);

        const DecodedTrace *trace;
        std::array<ClockCycle, kNumRegs> regReady{};
        // First-element availability of vector results (== regReady
        // for scalar results); vector consumers read it when
        // chaining.
        std::array<ClockCycle, kNumRegs> chainReady{};
        FuPool pool;
        CycleReservations bus;          // the single result bus
        // Per-branch prediction outcome; empty when disarmed.
        std::vector<std::uint8_t> predOk;
        SteadyStateTracker tracker;
        ClockCycle issueCursor = 0;     // earliest next issue slot
        ClockCycle end = 0;
        StallBreakdown stalls;
        std::size_t boundary;           // next steady-state boundary
        std::size_t cursor = 0;         // next op to issue
    };

    /**
     * Issue ops of @p lane until its cursor reaches @p stop (a
     * steady-state skip may carry it past).  kObs emits the audit
     * event and stall-sample stream; it requires an attached sink.
     */
    template <bool kObs>
    void advance(Lane &lane, std::size_t stop) const;

    /** The result of a lane advanced over its whole trace. */
    static SimResult result(const Lane &lane);

    using Simulator::run;
    SimResult run(const DecodedTrace &trace) override;
    std::string name() const override;
    std::string cacheKey() const override;
    const MachineConfig &config() const override { return cfg_; }
    AuditRules auditRules() const override;

  private:
    ScoreboardConfig org_;
    MachineConfig cfg_;
};

} // namespace mfusim

#endif // MFUSIM_SIM_SCOREBOARD_SIM_HH
