/**
 * @file
 * Multiple issue units with RUU dependency resolution (Tables 7-8).
 *
 * The Register Update Unit scheme of Sohi & Vajapeyam consolidates
 * all reservation stations into one unit that also acts as a reorder
 * buffer:
 *
 *  - up to N instructions per cycle are placed into the RUU in
 *    program order ("unless (i) a branch instruction is encountered
 *    or (ii) the RUU is full");
 *  - per-register instance counters rename registers, so WAW and WAR
 *    hazards never block issue;
 *  - instructions wait in the RUU for their operands and proceed to
 *    the functional units, up to N per cycle;
 *  - results return to the RUU (bypassed to waiting instructions the
 *    cycle they are produced) and are retired to the register file
 *    from the RUU head, in order, up to N per cycle, freeing slots.
 *
 * Bus organizations:
 *  - restricted N-Bus: issue unit i owns a fixed bank of RUU slots
 *    and fixed busses, so each bank dispatches at most one
 *    instruction and receives at most one result per cycle;
 *  - 1-Bus: one RUU->FU bus, one FU->RUU bus and one RUU->register
 *    file bus shared by all issue units;
 *  - X-Bar (extension): N busses usable by any slot.
 *
 * Branches never enter the RUU: a branch holds its issue unit until
 * its condition operand is produced, then blocks issue for the
 * configured branch time (no speculation, as everywhere in the
 * paper).  An armed predictor (MachineConfig::predictor) lets a
 * correctly predicted branch cost one issue slot; after a mispredict
 * the front end fetches wrong-path entries into the RUU until the
 * branch resolves and squashes them.
 */

#ifndef MFUSIM_SIM_RUU_SIM_HH
#define MFUSIM_SIM_RUU_SIM_HH

#include "mfusim/funits/fu_pool.hh"
#include "mfusim/funits/result_bus.hh"
#include "mfusim/sim/simulator.hh"

namespace mfusim
{

/** Organization of the RUU machine. */
struct RuuConfig
{
    unsigned width = 1;         //!< number of issue units (N)
    unsigned ruuSize = 10;      //!< total RUU entries
    BusKind busKind = BusKind::kPerUnit;

    /** Copies of each functional unit (extension; paper: 1). */
    unsigned fuCopies = 1;
    /** Independent memory ports (extension; paper: 1). */
    unsigned memPorts = 1;

    /**
     * Livelock watchdog threshold: cycles without any
     * insert/dispatch/commit event (while work remains) before the
     * run aborts with a diagnostic SimError.  0 =
     * kDefaultWatchdogCycles.
     */
    ClockCycle watchdogCycles = 0;
};

/**
 * The RUU dependency-resolution machine.
 */
class RuuSim : public Simulator
{
  public:
    /** @throws ConfigError on a zero or inconsistent size/width. */
    RuuSim(const RuuConfig &org, const MachineConfig &cfg);

    using Simulator::run;
    SimResult run(const DecodedTrace &trace) override;
    std::string name() const override;
    std::string cacheKey() const override;
    const MachineConfig &config() const override { return cfg_; }
    AuditRules auditRules() const override;

  private:
    /**
     * run() body, compiled once with audit emission and once without
     * so the audit-off scheduling loop carries no per-event branches.
     */
    template <bool kObs>
    SimResult runImpl(const DecodedTrace &trace);

    RuuConfig org_;
    MachineConfig cfg_;
};

} // namespace mfusim

#endif // MFUSIM_SIM_RUU_SIM_HH
