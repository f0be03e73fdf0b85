/**
 * @file
 * Performance limits: pseudo-dataflow, resource, actual, serial
 * (paper section 4, Table 2).
 *
 * The pseudo-dataflow limit assumes the program is stored as a
 * dataflow graph and every instruction executes the moment its
 * operands exist — unlimited issue width, unlimited buffering, pure
 * value flow (registers renamed away) — except that "different
 * portions of the dynamic program graph, i.e., different loop
 * iterations, cannot start until the appropriate branch conditions
 * have been resolved": every instruction is additionally gated on
 * the resolve time of the most recent preceding branch.
 *
 * The resource limit bounds execution by the busiest functional unit
 * of the *base machine*: a program with c operations on a unit of
 * latency L cannot finish before c + L cycles.
 *
 * The actual limit of a program is the tighter of the two; the
 * paper's class numbers are harmonic means of per-loop actual
 * limits.
 *
 * The serial variant adds the constraint of a machine with no WAW
 * result buffering: instructions that write the same architectural
 * register must *complete* in program order ("forcing it to finish,
 * at best, at the same time").
 */

#ifndef MFUSIM_DATAFLOW_LIMITS_HH
#define MFUSIM_DATAFLOW_LIMITS_HH

#include <algorithm>
#include <array>

#include "mfusim/core/decoded_trace.hh"
#include "mfusim/core/machine_config.hh"
#include "mfusim/core/trace.hh"

namespace mfusim
{

/** The three limits of one trace under one machine configuration. */
struct LimitResult
{
    double pseudoRate = 0.0;    //!< pseudo-dataflow issue-rate limit
    double resourceRate = 0.0;  //!< resource issue-rate limit
    double actualRate = 0.0;    //!< min of the two

    ClockCycle pseudoCycles = 0;
    ClockCycle resourceCycles = 0;
};

/**
 * Compute the limits of @p trace under @p cfg.
 *
 * @param serialWaw  apply the serial (in-order completion per
 *                   architectural register) constraint to the
 *                   critical-path computation.
 * @param fuCopies   copies of each functional unit assumed by the
 *                   resource limit (the paper's base machine: 1)
 * @param memPorts   memory ports assumed by the resource limit
 */
LimitResult computeLimits(const DynTrace &trace,
                          const MachineConfig &cfg,
                          bool serialWaw = false,
                          unsigned fuCopies = 1,
                          unsigned memPorts = 1);

/**
 * Compute the limits of a pre-decoded trace (under the configuration
 * it was decoded for).  The hot path for sweeps: per-op latencies,
 * occupancies and the trace statistics come straight out of the
 * decoded arrays, with no trait lookups.
 */
LimitResult computeLimits(const DecodedTrace &trace,
                          bool serialWaw = false,
                          unsigned fuCopies = 1,
                          unsigned memPorts = 1);

/**
 * Walk the pseudo-dataflow schedule of @p trace: the one schedule
 * behind the pseudo-dataflow limit, the width profile and the
 * buffering demand (trace_analysis.hh).
 *
 * Registers are renamed, so an op starts at the max of its operands'
 * ready times and the resolve time of the last earlier branch; a
 * branch resolves at its start + branchTime.  Vector ops are
 * elementwise: an op of occupancy() elements completes at start +
 * latency + elements - 1, and a chained consumer may start on its
 * first element, at start + latency + 1.  With @p serialWaw an op
 * also completes no earlier than the previous writer of its
 * destination register.
 *
 * @p visit(i, start, ready) sees every op in program order: its start
 * cycle and the cycle later ops see its effect (a branch's resolve
 * time, a result's ready time, else its completion).  The walk itself
 * allocates nothing.
 *
 * @return the critical path length: the last completion or resolve.
 */
template <class Visit>
ClockCycle
walkPseudoDataflow(const DecodedTrace &trace, bool serialWaw,
                   Visit &&visit)
{
    // value_ready: when the current value of each architectural
    // register exists (each write creates a new value, so WAW/WAR
    // impose nothing unless serialWaw).  last_done: completion time
    // of the previous writer of each register (serial constraint).
    std::array<ClockCycle, kNumRegs> value_ready{};
    std::array<ClockCycle, kNumRegs> last_done{};
    ClockCycle ctrl_ready = 0;      // resolve time of last branch
    ClockCycle critical = 0;
    const unsigned branch_time = trace.config().branchTime;

    const std::size_t n_ops = trace.size();
    for (std::size_t i = 0; i < n_ops; ++i) {
        const unsigned latency = trace.latency(i);
        const unsigned elements = trace.occupancy(i);
        const RegId srcA = trace.srcA(i);
        const RegId srcB = trace.srcB(i);
        const RegId dst = trace.dst(i);

        ClockCycle start = ctrl_ready;
        if (srcA != kNoReg)
            start = std::max(start, value_ready[srcA]);
        if (srcB != kNoReg)
            start = std::max(start, value_ready[srcB]);

        if (trace.isBranch(i)) {
            // Later instructions (the next loop iteration) are gated
            // on this branch resolving.
            ctrl_ready = start + branch_time;
            critical = std::max(critical, ctrl_ready);
            visit(i, start, ctrl_ready);
            continue;
        }
        ClockCycle done = start + latency + (elements - 1);
        ClockCycle ready = done;
        if (dst != kNoReg) {
            // No buffering: finish no earlier than the previous
            // writer of the same register.
            if (serialWaw)
                done = std::max(done, last_done[dst]);
            ready = elements > 1 ? start + latency + 1 : done;
            value_ready[dst] = ready;
            last_done[dst] = done;
        }
        critical = std::max(critical, done);
        visit(i, start, ready);
    }
    return critical;
}

} // namespace mfusim

#endif // MFUSIM_DATAFLOW_LIMITS_HH
