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

namespace mfusim
{

/** The serial two-stage machine. */
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

    using Simulator::run;
    SimResult run(const DecodedTrace &trace) override;
    std::string name() const override { return "Simple"; }
    std::string cacheKey() const override { return "simple"; }
    const MachineConfig &config() const override { return cfg_; }
    AuditRules auditRules() const override;

  private:
    // The execute loop is compiled twice: kObs emits the audit event
    // and stall-sample stream; without it the loop is a pure latency
    // sum.
    template <bool kObs> SimResult runImpl(const DecodedTrace &trace) const;

    MachineConfig cfg_;
};

} // namespace mfusim

#endif // MFUSIM_SIM_SIMPLE_SIM_HH
