/**
 * @file
 * IBM 360/91-style Tomasulo issue (paper section 3.3).
 *
 * "The instruction issuing scheme used in the IBM 360/91 floating
 * point unit issues instructions in spite of RAW and WAW hazards."
 *
 * Model: one instruction issues per cycle, in order, into a
 * reservation station of its functional unit's pool; issue blocks
 * only when that pool's stations are all occupied.  Register
 * renaming by tag (the classic Tomasulo scheme) removes WAW and WAR
 * hazards; an instruction leaves its station for the (segmented)
 * unit once its operands have been produced, and broadcasts its
 * result on a common data bus (CDB) — one result per CDB per cycle,
 * the scheme's hallmark bottleneck.  A station is held until the
 * broadcast.
 *
 * Unlike the RUU (Sohi's scheme, RuuSim), there is no in-order
 * retirement and hence no precise interrupts — that is exactly the
 * gap the paper's chosen RUU scheme fills.  Performance-wise a
 * Tomasulo machine with many stations and CDBs approaches a
 * single-issue RUU with a large buffer.
 */

#ifndef MFUSIM_SIM_TOMASULO_SIM_HH
#define MFUSIM_SIM_TOMASULO_SIM_HH

#include "mfusim/sim/simulator.hh"

namespace mfusim
{

/** Organization knobs of the Tomasulo machine. */
struct TomasuloConfig
{
    /**
     * Reservation stations per functional-unit class (the 360/91
     * had 3 adder and 2 multiplier stations; memory buffers are
     * modeled with the same count).
     */
    unsigned stationsPerFu = 3;

    /** Number of common data busses (classic 360/91: 1). */
    unsigned cdbCount = 1;
};

/**
 * Single-issue machine with Tomasulo dependency resolution.
 */
class TomasuloSim : public Simulator
{
  public:
    TomasuloSim(const TomasuloConfig &org, const MachineConfig &cfg);

    using Simulator::run;
    SimResult run(const DecodedTrace &trace) override;
    std::string name() const override;
    std::string cacheKey() const override;
    const MachineConfig &config() const override { return cfg_; }
    AuditRules auditRules() const override;

  private:
    // The issue loop is compiled twice: kObs=false (no attached
    // sink) carries zero event/stall-emission code, so the default
    // path's throughput is untouched by instrumentation.
    template <bool kObs> SimResult runImpl(const DecodedTrace &trace);

    TomasuloConfig org_;
    MachineConfig cfg_;
};

} // namespace mfusim

#endif // MFUSIM_SIM_TOMASULO_SIM_HH
