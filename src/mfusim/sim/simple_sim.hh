/**
 * @file
 * The Simple Machine: a strictly serial two-stage pipeline.
 *
 * "In this Simple Machine, there are two distinct phases in
 * processing an instruction: (i) an instruction fetch, decode and
 * issue phase ... and (ii) an instruction execution phase.  At any
 * time, at most one instruction can be in each phase of execution."
 *
 * An instruction enters the execution stage only when its predecessor
 * has completely finished, so there is never any overlap among
 * functional units and no hazard checking is needed.  This is the
 * paper's lower bound on the achievable issue rate (Table 1, row
 * "Simple").
 */

#ifndef MFUSIM_SIM_SIMPLE_SIM_HH
#define MFUSIM_SIM_SIMPLE_SIM_HH

#include "mfusim/core/error.hh"
#include "mfusim/sim/simulator.hh"
#include "mfusim/sim/steady_state.hh"

namespace mfusim
{

/**
 * The serial two-stage machine.  One run is one Lane advanced over
 * the whole trace; the batched sweep kernel (sim/batched.hh) advances
 * many lanes block by block through the same advance().
 */
class SimpleSim : public Simulator
{
  public:
    explicit SimpleSim(const MachineConfig &cfg) : cfg_(cfg)
    {
        if (cfg_.predictor.armed())
            throw ConfigError(
                "SimpleSim: branch prediction is not modeled for the"
                " serial machine (drop the predictor spec)");
    }

    /** The whole timing state of one run over one trace. */
    struct Lane
    {
        /**
         * A run of @p sim over @p trace, at op 0; steady state is
         * tracked unless disabled or a sink is attached.
         */
        Lane(const SimpleSim &sim, const DecodedTrace &trace);

        const DecodedTrace *trace;
        SteadyStateTracker tracker;
        ClockCycle end = 0;             // the execute stage frees
        std::size_t boundary;           // next steady-state boundary
        std::size_t cursor = 0;         // next op to execute
    };

    /**
     * Execute ops of @p lane until its cursor reaches @p stop (a
     * steady-state skip may carry it past).  kObs emits the audit
     * event and stall-sample stream; without it the loop is a pure
     * latency sum.
     */
    template <bool kObs>
    void advance(Lane &lane, std::size_t stop) const;

    /** The result of a lane advanced over its whole trace. */
    static SimResult result(const Lane &lane);

    using Simulator::run;
    SimResult run(const DecodedTrace &trace) override;
    std::string name() const override { return "Simple"; }
    std::string cacheKey() const override { return "simple"; }
    const MachineConfig &config() const override { return cfg_; }
    AuditRules auditRules() const override;

  private:
    MachineConfig cfg_;
};

} // namespace mfusim

#endif // MFUSIM_SIM_SIMPLE_SIM_HH
