/**
 * @file
 * Common interface of all trace-driven timing simulators.
 *
 * Every machine organization in the paper is a Simulator: it consumes
 * a DynTrace and reports how many clock cycles the trace would take,
 * from which the paper's figure of merit — the instruction issue rate
 * (instructions per clock cycle) — follows.
 *
 * A simulator reports how it got there through one optional event
 * sink (AuditSink, sim/audit.hh): cycle-stamped pipeline events and
 * attributed stall samples.  runWithSinks() records them once, into
 * an OpSchedule or the PipeTraceRecorder that extends it, and can
 * audit that recording.
 */

#ifndef MFUSIM_SIM_SIMULATOR_HH
#define MFUSIM_SIM_SIMULATOR_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "mfusim/core/decoded_trace.hh"
#include "mfusim/core/machine_config.hh"
#include "mfusim/core/trace.hh"
#include "mfusim/obs/obs_sink.hh"
#include "mfusim/sim/audit.hh"

namespace mfusim
{

/**
 * Default livelock threshold of the no-forward-progress watchdog:
 * if a cycle-driven simulator advances this many cycles without a
 * single issue/dispatch/complete event while work remains, it throws
 * a diagnostic SimError instead of spinning forever.  Legal stalls
 * are bounded by a few tens of cycles (longest latency + branch
 * time), so the default is far above any reachable gap; tests use
 * tiny values to provoke the watchdog deterministically.
 */
constexpr ClockCycle kDefaultWatchdogCycles = 1000000;

/** Outcome of one simulation. */
struct SimResult
{
    std::uint64_t instructions = 0; //!< dynamic instructions issued
    ClockCycle cycles = 0;          //!< completion time of the trace

    /**
     * Issue cycles lost per StallCause, each charged to the binding
     * hazard in check order.  Only the scoreboard family fills them
     * (and sets hasStalls); it uses causes kRaw..kBranch only.
     */
    StallCounts stalls{};
    bool hasStalls = false;

    /**
     * Instructions closed by steady-state extrapolation instead of
     * cycle-accurate simulation (see sim/steady_state.hh).  Purely
     * diagnostic: cycles/stalls are bit-identical either way.  Zero
     * when the fast path is disabled, never converged, or the trace
     * has no periodic structure.
     */
    std::uint64_t steadyOpsSkipped = 0;

    /**
     * Speculation telemetry (zero unless a predictor is armed):
     * mispredicted branches squashed, and wrong-path instructions
     * that actually occupied issue/FU/bus resources before their
     * squash.
     */
    std::uint64_t squashes = 0;
    std::uint64_t wrongPathOps = 0;

    /** The paper's performance measure: instructions per cycle. */
    double issueRate() const;
};

/**
 * A trace-driven timing simulator for one machine organization.
 *
 * The hot path is run(const DecodedTrace &): every simulator's cycle
 * loop consumes the pre-decoded rows and links instead of looking
 * opcode traits up per op per visit.  run(const DynTrace &) is a
 * convenience that decodes under the simulator's own configuration
 * and delegates; sweeps should pass a cached DecodedTrace (see
 * TraceLibrary::decoded()) so the decode cost is paid once per
 * (trace, configuration), not once per run.
 */
class Simulator
{
  public:
    virtual ~Simulator() = default;

    /** Decode @p trace under config() and simulate it. */
    SimResult run(const DynTrace &trace);

    /**
     * Simulate a pre-decoded trace.  @p trace must have been decoded
     * under config() (the stored latencies embed the memory and
     * branch times); simulators throw ConfigError on a mismatch.
     */
    virtual SimResult run(const DecodedTrace &trace) = 0;

    /** Human-readable machine description (without M/BR config). */
    virtual std::string name() const = 0;

    /**
     * A canonical identity string for the deterministic result cache
     * (serve/result_cache.hh): two simulators with equal cacheKey()
     * and equal MachineConfig MUST produce bit-identical SimResults
     * on every trace.  Unlike name(), the key serializes EVERY
     * organization knob (armed predictor, WAR blocking, FU copies,
     * ports, ...), so ablation variants that share a display name
     * never alias.  An empty string opts out of caching; the base
     * class returns empty so external Simulator subclasses are
     * uncacheable unless they make the identity promise explicitly.
     */
    virtual std::string cacheKey() const { return ""; }

    /** The machine parameters this simulator times traces under. */
    virtual const MachineConfig &config() const = 0;

    /**
     * Attach (nullptr: detach) the event sink.  With a sink
     * attached, run() emits one AuditEvent per pipeline event and
     * one StallSample per attributed front-end wait; with none,
     * emission is a single predicted-not-taken branch per event.
     * The caller owns the sink and must keep it alive across the run
     * (see runWithSinks() for the packaged form).
     */
    void attachAudit(AuditSink *sink) { sink_ = sink; }
    AuditSink *auditSink() const { return sink_; }

    /**
     * The legality invariants an Auditor should enforce for this
     * organization (see AuditRules).  The base implementation models
     * nothing; every concrete simulator overrides it.
     */
    virtual AuditRules auditRules() const { return AuditRules{}; }

  protected:
    /** Emit one audit event if a sink is attached. */
    void
    emitAudit(AuditPhase phase, ClockCycle cycle, std::uint64_t op,
              std::int32_t unit = -1) const
    {
        if (sink_)
            sink_->onEvent(AuditEvent{ cycle, op, unit, phase });
    }

    /**
     * Report @p cycles consecutive lost issue cycles starting at
     * @p from, attributed to @p cause, if a sink is attached.
     * Zero-length waits are swallowed here so call sites can report
     * every resolved max() unconditionally.
     */
    void
    emitStall(StallCause cause, ClockCycle from, ClockCycle cycles,
              std::uint64_t op) const
    {
        if (sink_ && cycles)
            sink_->onStall(StallSample{ from, cycles, op, cause });
    }

    /**
     * Prediction bytes of config()'s predictor over @p trace (see
     * precomputePredictions), or an empty vector when none is armed.
     */
    std::vector<std::uint8_t>
    predictionBytes(const DecodedTrace &trace) const;

    /**
     * The periodicity this run's SteadyStateTracker follows, or null
     * when the fast path may not engage: it is disabled, a sink is
     * attached (the event stream must be complete), or the predictor
     * carries history across iterations (it mispredicts
     * aperiodically).  The one eligibility rule of every machine.
     */
    const TracePeriodicity *steadyPeriods(const DecodedTrace &trace) const;

    /**
     * One branch at the single-issue front end of the scoreboard,
     * CDC 6600 and Tomasulo machines.  A branch the armed predictor
     * gets right (@p predOk from predictionBytes()) spends one issue
     * slot at @p cursor.  Any other waits for its condition
     * (@p condReady), issues, squashes when a predictor is armed, and
     * holds the issue stage for @p branchTime.  Advances @p cursor
     * and @p end; returns the issue cycles lost, all of them kBranch
     * stalls (also reported as samples under kObs).
     */
    template <bool kObs>
    ClockCycle
    singleIssueBranch(std::size_t op, ClockCycle condReady,
                      const std::vector<std::uint8_t> &predOk,
                      unsigned branchTime, ClockCycle &cursor,
                      ClockCycle &end) const
    {
        if (!predOk.empty() && predOk[op]) {
            if constexpr (kObs)
                emitAudit(AuditPhase::kIssue, cursor, op);
            ++cursor;
            end = std::max(end, cursor);
            return 0;
        }
        const ClockCycle t = std::max(cursor, condReady);
        const unsigned held = branchTime - 1;   // issue cycles after t
        if constexpr (kObs) {
            emitAudit(AuditPhase::kIssue, t, op);
            if (!predOk.empty())
                emitAudit(AuditPhase::kSquash, t, op);
            emitStall(StallCause::kBranch, cursor, t - cursor, op);
            emitStall(StallCause::kBranch, t + 1, held, op);
        }
        const ClockCycle lost = (t - cursor) + held;
        cursor = t + branchTime;
        end = std::max(end, cursor);
        return lost;
    }

  private:
    AuditSink *sink_ = nullptr;
};

/**
 * Run @p trace on @p sim with @p schedule (may be null) attached and,
 * when @p audit, check the recorded schedule against
 * sim.auditRules() after the run (into a schedule of its own when
 * @p schedule is null).  Each event is recorded once, so an audited
 * PipeTraceRecorder run stores one schedule.  Issue rates are
 * bit-identical to a plain run(); a legality violation raises
 * AuditError.
 */
SimResult runWithSinks(Simulator &sim, const DecodedTrace &trace,
                       OpSchedule *schedule, bool audit);

/** runWithSinks() with the audit alone. */
SimResult runAudited(Simulator &sim, const DecodedTrace &trace);

/**
 * Throw ConfigError unless @p trace was decoded under @p cfg.  Every
 * simulator calls this at the top of its decoded-trace run; the
 * check is once per run, not per op.
 */
void checkDecodedConfig(const DecodedTrace &trace,
                        const MachineConfig &cfg);

} // namespace mfusim

#endif // MFUSIM_SIM_SIMULATOR_HH
