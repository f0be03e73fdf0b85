/**
 * @file
 * Dataflow limit computation.
 */

#include "mfusim/dataflow/limits.hh"

namespace mfusim
{

LimitResult
computeLimits(const DynTrace &trace, const MachineConfig &cfg,
              bool serialWaw, unsigned fuCopies, unsigned memPorts)
{
    return computeLimits(DecodedTrace(trace, cfg), serialWaw,
                         fuCopies, memPorts);
}

LimitResult
computeLimits(const DecodedTrace &trace, bool serialWaw,
              unsigned fuCopies, unsigned memPorts)
{
    const MachineConfig &cfg = trace.config();
    LimitResult result;
    if (trace.empty())
        return result;

    // ---- pseudo-dataflow: critical path with branch gating --------
    const ClockCycle critical = walkPseudoDataflow(
        trace, serialWaw, [](std::size_t, ClockCycle, ClockCycle) {});

    // ---- resource limit: busiest functional unit ------------------
    const TraceStats &stats = trace.stats();
    ClockCycle resource = 0;
    for (unsigned fu = 0; fu < kNumFuClasses; ++fu) {
        const auto fu_class = static_cast<FuClass>(fu);
        if (fu_class == FuClass::kTransfer ||
            fu_class == FuClass::kBranch) {
            // Register data paths and the issue stage are not
            // functional-unit resources of the base machine.
            continue;
        }
        // A vector op holds its unit for one cycle per element: its
        // element count replaces its single perFu slot in the
        // class's busy time.
        std::uint64_t count = stats.perFu[fu] -
            stats.vectorOpsPerFu[fu] + stats.vectorElementsPerFu[fu];
        if (count == 0)
            continue;
        unsigned latency;
        if (fu_class == FuClass::kMemory) {
            latency = cfg.memLatency;
            count = (count + memPorts - 1) / memPorts;
        } else {
            count = (count + fuCopies - 1) / fuCopies;
        }
        if (fu_class != FuClass::kMemory) {
            // All ops of a class share the unit latency; find it
            // from any op of that class (fixed trait latency).
            latency = 0;
            for (unsigned o = 0; o < kNumOps; ++o) {
                if (traitsOf(static_cast<Op>(o)).fu == fu_class) {
                    latency = traitsOf(static_cast<Op>(o)).latency;
                    break;
                }
            }
        }
        resource = std::max(resource, ClockCycle(count + latency));
    }

    const double n = double(trace.size());
    result.pseudoCycles = critical;
    result.resourceCycles = resource;
    result.pseudoRate = critical == 0 ? 0.0 : n / double(critical);
    result.resourceRate = resource == 0 ? 0.0 : n / double(resource);
    if (result.resourceRate == 0.0)
        result.actualRate = result.pseudoRate;
    else
        result.actualRate =
            std::min(result.pseudoRate, result.resourceRate);
    return result;
}

} // namespace mfusim
