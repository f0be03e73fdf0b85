/**
 * @file
 * CDC 6600-style scoreboard issue (paper section 3.3).
 *
 * "The instruction issue scheme used in the CDC 6600 handles RAW
 * hazards but blocks instruction issue when a WAW hazard is
 * encountered."
 *
 * Model: one instruction issues per cycle, in order.  Issue blocks
 * on WAW hazards (the destination register is reserved by an
 * in-flight writer) and on structural hazards (each functional-unit
 * class has a single waiting station; an instruction parked there
 * waiting for operands blocks later instructions that need the same
 * unit).  Issue does NOT block on RAW hazards: the instruction
 * proceeds to its unit and waits there for its operands, so
 * independent instructions behind it keep issuing.
 *
 * The functional units themselves are the CRAY-like complement
 * (segmented, interleaved memory), isolating the issue-scheme
 * comparison exactly as section 3.3 does ("Given the functional
 * units of a CRAY-like machine, the instruction issue rate can be
 * further improved by making the issue unit more elaborate").
 * WAR hazards are not modeled (the paper: "not important in a
 * single processor situation").
 */

#ifndef MFUSIM_SIM_CDC6600_SIM_HH
#define MFUSIM_SIM_CDC6600_SIM_HH

#include "mfusim/core/error.hh"
#include "mfusim/sim/simulator.hh"

namespace mfusim
{

/** Organization knobs of the CDC 6600-style machine. */
struct Cdc6600Config
{
    /** Model single-result-bus completion conflicts. */
    bool modelResultBus = true;
};

/**
 * Single-issue machine with CDC 6600-style RAW handling.
 */
class Cdc6600Sim : public Simulator
{
  public:
    Cdc6600Sim(const Cdc6600Config &org, const MachineConfig &cfg)
        : org_(org), cfg_(cfg)
    {
        cfg_.predictor.requireNoWrongPath("Cdc6600Sim");
    }

    using Simulator::run;
    SimResult run(const DecodedTrace &trace) override;
    std::string name() const override { return "CDC6600-issue"; }
    std::string
    cacheKey() const override
    {
        return std::string("cdc|rbus=") +
            (org_.modelResultBus ? "1" : "0") +
            (cfg_.predictor.armed() ? "|pred=" + cfg_.predictor.key()
                                    : std::string());
    }
    const MachineConfig &config() const override { return cfg_; }
    AuditRules auditRules() const override;

  private:
    // The issue loop is compiled twice: kObs=false (no attached
    // sink) carries zero event/stall-emission code, so the default
    // path's throughput is untouched by instrumentation.
    template <bool kObs> SimResult runImpl(const DecodedTrace &trace);

    Cdc6600Config org_;
    MachineConfig cfg_;
};

} // namespace mfusim

#endif // MFUSIM_SIM_CDC6600_SIM_HH
