/**
 * @file
 * Simulator base: the decode-and-delegate convenience path.
 */

#include "mfusim/sim/simulator.hh"

#include <optional>

#include "mfusim/core/error.hh"
#include "mfusim/sim/steady_state.hh"
#include "mfusim/spec/predictor.hh"

namespace mfusim
{

SimResult
Simulator::run(const DynTrace &trace)
{
    return run(DecodedTrace(trace, config()));
}

std::vector<std::uint8_t>
Simulator::predictionBytes(const DecodedTrace &trace) const
{
    const PredictorSpec &predictor = config().predictor;
    return predictor.armed() ? precomputePredictions(trace, predictor)
                             : std::vector<std::uint8_t>();
}

const TracePeriodicity *
Simulator::steadyPeriods(const DecodedTrace &trace) const
{
    return steadyStateEnabled() && sink_ == nullptr &&
            config().predictor.isStatic()
        ? &trace.periodicity()
        : nullptr;
}

SimResult
runWithSinks(Simulator &sim, const DecodedTrace &trace,
             OpSchedule *schedule, bool audit)
{
    std::optional<OpSchedule> own;
    if (audit && !schedule)
        schedule = &own.emplace(trace.size());
    sim.attachAudit(schedule);
    SimResult result;
    try {
        result = sim.run(trace);
    } catch (...) {
        sim.attachAudit(nullptr);
        throw;
    }
    sim.attachAudit(nullptr);
    if (audit)
        Auditor(trace, *schedule, sim.auditRules(), sim.name()).check();
    return result;
}

SimResult
runAudited(Simulator &sim, const DecodedTrace &trace)
{
    return runWithSinks(sim, trace, nullptr, true);
}

/**
 * Shared guard: a DecodedTrace bakes the machine configuration into
 * its stored latencies, so running it on a simulator configured
 * differently would silently produce wrong timings.  Only the two
 * timing parameters matter — the decode is predictor-agnostic (the
 * TraceLibrary cache shares one decode across predictor variants),
 * so the predictor axis is deliberately not compared here.
 */
void
checkDecodedConfig(const DecodedTrace &trace, const MachineConfig &cfg)
{
    if (trace.config().memLatency != cfg.memLatency ||
        trace.config().branchTime != cfg.branchTime) {
        throw ConfigError(
            "simulator configured for " + cfg.name() +
            " cannot run a trace decoded for " +
            trace.config().name());
    }
}

} // namespace mfusim
