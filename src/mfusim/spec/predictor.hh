/**
 * @file
 * Branch-predictor specifications: the simulators' one branch model.
 *
 * The paper's machines never speculate: "execution of the branch
 * target is not started until the branch outcome is known".  That is
 * the disarmed spec (Kind::kNone): a branch waits for its condition
 * and then blocks the front end for the branch time.  An armed
 * PredictorSpec lets the front end run past a branch along the
 * predicted path.  A correctly predicted branch costs one issue slot;
 * a mispredicted one lets up to `wrongPathWindow` wrong-path
 * instructions occupy real issue/FU/bus resources until the branch
 * resolves, then squashes them precisely (see docs/MODEL.md,
 * "Speculation").  A zero window fetches nothing past a mispredict,
 * which is the idealized static predictor behind the machine-spec
 * aliases ",btfn" (btfn:w0) and ",oracle" (perfect).
 *
 * The spec is a value type carried inside MachineConfig; this header
 * is therefore deliberately self-contained (no simulator includes).
 * Prediction outcomes are a pure function of the *architectural*
 * branch stream — wrong-path ops never update predictor state — so
 * they can be precomputed once per (trace, spec) pair in trace order
 * and replayed identically by the simulators and the auditor.
 */

#ifndef MFUSIM_SPEC_PREDICTOR_HH
#define MFUSIM_SPEC_PREDICTOR_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "mfusim/core/types.hh"

namespace mfusim
{

class DecodedTrace;

/**
 * One branch-predictor configuration.  `kind == kNone` (the default)
 * is the paper's blocking front end.
 */
struct PredictorSpec
{
    enum class Kind : std::uint8_t
    {
        kNone,     //!< no prediction: the paper's blocking front end
        kPerfect,  //!< every branch predicted correctly
        kTaken,    //!< static always-taken
        kBtfn,     //!< static backward-taken / forward-not-taken
        kTwoBit,   //!< 2-bit saturating counters, direct-mapped table
        kFixed,    //!< synthetic fixed accuracy (seeded, deterministic)
    };

    Kind kind = Kind::kNone;

    /** 2-bit counter table entries (power of two; kTwoBit only). */
    unsigned tableSize = 512;

    /** Percent of branches predicted correctly (kFixed only). */
    unsigned accuracyPct = 90;

    /** Seed for the kFixed outcome stream. */
    std::uint64_t seed = 1;

    /**
     * Wrong-path fetch window: how many wrong-path instructions the
     * front end can push past a mispredicted branch before it runs
     * out of fetched-ahead instructions.  Bounds the resource
     * pollution a single mispredict can cause; 0 fetches nothing
     * past a mispredict (the only window the single-issue machines
     * accept for a predictor that can mispredict).
     */
    unsigned wrongPathWindow = 8;

    /** True when a predictor is configured (kind != kNone). */
    bool armed() const { return kind != Kind::kNone; }

    /**
     * True when a branch's prediction depends only on that branch
     * and its outcome (disarmed, perfect, taken, btfn).  The
     * mispredict stream then repeats with the trace's loop period,
     * which is what keeps the steady-state fast path exact; 2-bit
     * counters and fixed-accuracy hashes carry history across
     * iterations instead.
     */
    bool
    isStatic() const
    {
        return kind != Kind::kTwoBit && kind != Kind::kFixed;
    }

    /**
     * The cycle a mispredicted branch that entered the front end at
     * @p issue resolves (and squashes): when its condition exists
     * (@p condReady), but no earlier than the cycle after issue when
     * the front end fetched down the wrong path in between.  With a
     * zero window nothing was fetched, so the branch resolves exactly
     * where a blocking branch would issue, and the redirect floor
     * resolve + branchTime equals the blocking floor.
     */
    ClockCycle
    resolveCycle(ClockCycle issue, ClockCycle condReady) const
    {
        return std::max(issue + (wrongPathWindow > 0 ? 1 : 0),
                        condReady);
    }

    /**
     * For machines that fetch no wrong path (the single-issue ones):
     * accept a disarmed spec, a perfect predictor (it never
     * mispredicts) or a zero window.
     * @throws ConfigError naming @p machine otherwise.
     */
    void requireNoWrongPath(const std::string &machine) const;

    /**
     * Canonical short form, e.g. "2bit:512:w8" or "fixed:90:s1:w8";
     * parse(key()) round-trips.  Empty when disarmed.
     */
    std::string key() const;

    /**
     * Parse a spec string:
     *
     *   perfect | taken | btfn
     *   2bit[:TABLE]            (TABLE a power of two, default 512)
     *   fixed:PCT[:sSEED]       (PCT in [0,100], default seed 1)
     *
     * any form may append ":wN" to set the wrong-path window
     * (N in [0,4096], default 8).  Each option appears at most once.
     *
     * @throws ConfigError on malformed input or a repeated option.
     */
    static PredictorSpec parse(const std::string &text);

    /** @throws ConfigError on out-of-range fields. */
    void validate() const;

    bool
    operator==(const PredictorSpec &other) const
    {
        return kind == other.kind && tableSize == other.tableSize &&
            accuracyPct == other.accuracyPct && seed == other.seed &&
            wrongPathWindow == other.wrongPathWindow;
    }
};

/**
 * Replay @p spec over the architectural branch stream of @p trace:
 * element i is 1 when op i is a branch the predictor gets right, 0
 * when it is a mispredicted branch, and 1 for non-branches (they are
 * never squash points).  Deterministic and timing-independent — the
 * predictor state advances only on retired branches, in trace order,
 * so the simulators and the auditor share one ground truth.
 */
std::vector<std::uint8_t>
precomputePredictions(const DecodedTrace &trace,
                      const PredictorSpec &spec);

/**
 * Process-wide speculative-run telemetry, mirrored into the serve
 * tier's /metrics exposition (mfusim_sim_squashes_total etc.).
 */
struct SpecTelemetry
{
    std::uint64_t squashes = 0;
    std::uint64_t wrongPathOps = 0;
    /** Cycles lost to mispredicts (wrong-path + squash drain). */
    std::uint64_t mispredictCycles = 0;
};

/** Fold one finished speculative run into the process counters. */
void recordSpecRun(std::uint64_t squashes, std::uint64_t wrongPathOps,
                   std::uint64_t mispredictCycles);

/** Snapshot the process-wide speculative telemetry. */
SpecTelemetry specTelemetry();

} // namespace mfusim

#endif // MFUSIM_SPEC_PREDICTOR_HH
