/**
 * @file
 * Steady-state extrapolation over periodic trace segments.
 *
 * Every simulator's timing rules are deterministic and
 * time-invariant: state evolution depends only on *differences*
 * between stored cycle numbers, never on absolute time.  So if the
 * complete architectural timing state at one iteration boundary of a
 * periodic trace segment (see dataflow/period_detector.hh) equals
 * the state m iterations earlier — with every stored time rebased to
 * the boundary's cursor — then every subsequent group of m
 * iterations replays the same schedule shifted by a constant cycle
 * delta.  The remaining iterations can then be closed in O(1): shift
 * every live time by R*delta, advance the op cursor by R*m periods
 * and add R times the per-group stall deltas.  Integer cycle
 * arithmetic makes the extrapolation exact, not approximate.
 *
 * SteadyStateTracker implements the boundary bookkeeping shared by
 * all six simulators.  A simulator
 *
 *  1. calls beginObserve(cursor) when its op cursor reaches
 *     nextBoundary();
 *  2. fills sigBuffer() with its complete normalized live state
 *     (values are rebased to a base cycle: stale times — at or
 *     before the base — may be encoded as 0, because every consumer
 *     reads times through max()/<= against cycles >= the base, so
 *     states differing only in how stale a stale time is evolve
 *     identically; quantities consumed as exact differences, like
 *     the watchdog's last-event cycle, must be encoded exactly);
 *  3. calls finishObserve(); on a returned Skip it advances its op
 *     cursor by Skip::ops, shifts every stored time by Skip::delta
 *     and adds Skip::counters to its stall counters.
 *
 * A skip is only offered after two *consecutive* observed boundaries
 * match at the same iteration distance m (K = 2 confirmations), and
 * never past the segment's final boundary — the epilogue, including
 * the final not-taken branch, is always simulated exactly.  Matching
 * at distance m > 1 covers super-periodic state (e.g. the RUU's
 * round-robin bank pointer when inserts-per-period is not a multiple
 * of the width).
 *
 * Exactness rests entirely on the *signature match*, never on the
 * confirmation count: a complete-state match already certifies the
 * replay.  K = 2 is paranoia against a body whose state wanders in
 * ways the first match happened to hide.  That paranoia is paid once
 * per body, not once per segment: when a segment's *family* (see
 * TraceSegment::family — identical steady-state bodies) has been
 * confirmed earlier in the same run, a first in-segment match skips
 * immediately (K = 1).  Hierarchically periodic traces (LL6's
 * triangular nest decomposes into many short same-family segments)
 * then pay the two-match warm-up once for the whole trace instead of
 * once per inner run — including two-period segments, which have
 * only a single boundary pair and could otherwise never skip.  The
 * extrapolation delta always comes from a same-segment record;
 * cross-segment state is never reused.
 *
 * Each observed boundary leaves one record in a ring of kRing: its
 * boundary index, base cycle, counters and signature.  The signature
 * is stored packed, each word w as the LEB128 varint of w + 1: a
 * stale time, a flag or a short offset takes one byte, and so does
 * kUnknown, which wraps to 0.  Packing is a bijection, so a lookup
 * compares lengths and then the packed bytes in full, and a match is
 * still a complete-state match.  The simulator's word buffer is the
 * one unpacked copy.
 *
 * The fast path is on by default; setSteadyStateEnabled(false), the
 * --no-steady-state CLI flag or MFUSIM_NO_STEADY_STATE=1 in the
 * environment disable it, and simulators bypass it whenever an audit
 * sink is attached (the audit event stream must be complete, so
 * auditing always takes the plain path).
 */

#ifndef MFUSIM_SIM_STEADY_STATE_HH
#define MFUSIM_SIM_STEADY_STATE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mfusim/core/types.hh"
#include "mfusim/dataflow/period_detector.hh"

namespace mfusim
{

/**
 * Process-wide enable flag of the steady-state fast path.  Defaults
 * to true unless MFUSIM_NO_STEADY_STATE is set (non-empty, not "0")
 * in the environment.
 */
bool steadyStateEnabled();
void setSteadyStateEnabled(bool enabled);

/**
 * Iteration-boundary state matcher for one simulation run.
 */
class SteadyStateTracker
{
  public:
    /** Ring capacity: super-periods up to kRing - 1 are matched.
     *  Deep out-of-order windows (e.g. a 100-entry RUU striding a
     *  short loop body) drift in phase for tens of iterations before
     *  the boundary state recurs, so the ring reaches well past the
     *  common super-periods of 2..8 boundaries. */
    static constexpr std::size_t kRing = 48;
    static constexpr std::size_t kMaxCounters = 6;

    /** Extrapolation order returned by finishObserve(). */
    struct Skip
    {
        std::uint64_t ops = 0;      //!< add to the op cursor
        ClockCycle delta = 0;       //!< add to every live stored time
        /**
         * Add to the run's stall counters (same order as passed).
         *
         * Simulators that keep per-op times refill the ops they hold
         * behind the landing cursor with the plain state shift —
         * time[q] = time[q - ops] + delta — the source op has the
         * same cursor-relative phase as q and lies in the exactly
         * simulated prefix (the simulator guards cursor >= window
         * before observing).
         */
        std::array<std::uint64_t, kMaxCounters> counters{};
    };

    /**
     * Track @p periods (may be null: tracker inert, nextBoundary()
     * is past every cursor).  @p traceSize is the op count.
     */
    SteadyStateTracker(const TracePeriodicity *periods,
                       std::size_t traceSize);

    /**
     * The next op index at which the owning simulator should call
     * beginObserve(); traceSize when no boundary remains.
     */
    std::size_t nextBoundary() const { return next_; }

    /**
     * Start observing: @p cursor is the simulator's op cursor,
     * >= nextBoundary().  Picks the latest boundary at or before
     * the cursor (the cursor-boundary offset joins the signature, so
     * simulators whose cursor strides past boundaries — a
     * multi-issue window under a branch predictor — still
     * match like with like).  Returns false when the cursor left the
     * current segment's periodic region: no observation, the
     * boundary cursor resynchronizes, skip sigBuffer()/
     * finishObserve().
     */
    bool beginObserve(std::size_t cursor);

    /** Segment of the boundary being observed (after beginObserve). */
    const TraceSegment &segment() const { return *seg_; }

    /** Cleared signature buffer to fill between begin/finish. */
    std::vector<std::uint64_t> &sigBuffer();

    /**
     * Abandon the current observation (simulator-side guard failed,
     * e.g. not enough simulated history for its lookback window).
     * Breaks the confirmation chain.
     */
    void cancelObserve();

    /**
     * Record the observation and try to extrapolate.  @p base is the
     * normalization base; @p counters (numCounters <= kMaxCounters)
     * are the run's monotone stall counters at this boundary.
     */
    std::optional<Skip> finishObserve(ClockCycle base,
                                      const std::uint64_t *counters,
                                      std::size_t numCounters);

    /** Total ops closed by extrapolation so far. */
    std::uint64_t opsSkipped() const { return opsSkipped_; }

  private:
    struct Record
    {
        bool valid = false;
        std::size_t boundary = 0;   //!< boundary index k in segment
        ClockCycle base = 0;
        std::array<std::uint64_t, kMaxCounters> counters{};
        std::vector<std::uint8_t> sig;  //!< packed signature
    };

    void clearRing();
    /** Pack sig_ into packed_; returns the packed length. */
    std::size_t pack();
    /** Advance segment/boundary cursors so next_ > cursor holds. */
    void resync(std::size_t cursor);

    const TracePeriodicity *periods_;
    std::size_t traceSize_;
    std::size_t segIdx_ = 0;
    const TraceSegment *seg_ = nullptr;
    std::size_t next_;              //!< next boundary op index
    std::size_t obsBoundary_ = 0;   //!< boundary index being observed
    std::size_t obsOffset_ = 0;     //!< cursor - boundary op index

    std::array<Record, kRing> ring_;
    std::size_t ringNext_ = 0;
    std::vector<std::uint64_t> sig_;
    std::vector<std::uint8_t> packed_;  //!< sig_ packed, grow-only

    // Confirmation chain: the previous observed boundary and whether
    // it matched at some distance.
    std::size_t lastObserved_ = std::size_t(-1);
    std::size_t lastMatchDist_ = 0;
    std::size_t lastMatchBoundary_ = std::size_t(-1);

    // Families whose steady state was confirmed earlier in this run.
    // Deliberately NOT cleared on segment advance: this is the
    // cross-segment trust that lets a later same-family segment skip
    // on its first match.
    std::vector<std::uint32_t> confirmedFamilies_;

    std::uint64_t opsSkipped_ = 0;
};

} // namespace mfusim

#endif // MFUSIM_SIM_STEADY_STATE_HH
