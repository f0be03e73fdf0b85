/**
 * @file
 * Steady-state tracker implementation.
 */

#include "mfusim/sim/steady_state.hh"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>

namespace mfusim
{

namespace
{

bool
initialEnable()
{
    // MFUSIM_NO_STEADY_STATE=1 (any non-empty value but "0")
    // disables the fast path for the whole process.
    const char *value = std::getenv("MFUSIM_NO_STEADY_STATE");
    if (value == nullptr || *value == '\0')
        return true;
    return value[0] == '0' && value[1] == '\0';
}

std::atomic<bool> g_steadyEnabled{ initialEnable() };

} // namespace

bool
steadyStateEnabled()
{
    return g_steadyEnabled.load(std::memory_order_relaxed);
}

void
setSteadyStateEnabled(bool enabled)
{
    g_steadyEnabled.store(enabled, std::memory_order_relaxed);
}

SteadyStateTracker::SteadyStateTracker(const TracePeriodicity *periods,
                                       std::size_t traceSize)
    : periods_(periods), traceSize_(traceSize), next_(traceSize)
{
    if (periods_ != nullptr)
        resync(0);
}

void
SteadyStateTracker::clearRing()
{
    for (Record &rec : ring_)
        rec.valid = false;
    ringNext_ = 0;
    lastObserved_ = std::size_t(-1);
    lastMatchDist_ = 0;
    lastMatchBoundary_ = std::size_t(-1);
}

void
SteadyStateTracker::resync(std::size_t cursor)
{
    while (segIdx_ < periods_->segments.size()) {
        const TraceSegment &seg = periods_->segments[segIdx_];
        // Boundaries 0..count-1 are observation points (observing at
        // the final boundary could never skip anything).
        if (cursor <= seg.base) {
            seg_ = &seg;
            next_ = seg.base;
            return;
        }
        if (cursor < seg.base + (seg.count - 1) * seg.period) {
            const std::size_t k =
                (cursor - seg.base + seg.period - 1) / seg.period;
            seg_ = &seg;
            next_ = seg.base + k * seg.period;
            return;
        }
        ++segIdx_;
        clearRing();
    }
    seg_ = nullptr;
    next_ = traceSize_;
}

bool
SteadyStateTracker::beginObserve(std::size_t cursor)
{
    assert(seg_ != nullptr && cursor >= next_);
    const TraceSegment &seg = *seg_;
    if (cursor >= seg.end()) {
        // The cursor left the periodic region (a wide window can
        // overrun a short segment): resynchronize, no observation.
        ++segIdx_;
        clearRing();
        resync(cursor);
        return false;
    }
    const std::size_t k = (cursor - seg.base) / seg.period;
    obsBoundary_ = k;
    obsOffset_ = cursor - (seg.base + k * seg.period);
    return true;
}

std::vector<std::uint64_t> &
SteadyStateTracker::sigBuffer()
{
    sig_.clear();
    return sig_;
}

void
SteadyStateTracker::cancelObserve()
{
    lastMatchDist_ = 0;
    lastObserved_ = obsBoundary_;
    // Consume the boundary: observe the next one (or next segment).
    if (obsBoundary_ + 1 < seg_->count) {
        next_ = seg_->base + (obsBoundary_ + 1) * seg_->period;
    } else {
        const std::size_t end = seg_->end();
        ++segIdx_;
        clearRing();
        resync(end);
    }
}

std::size_t
SteadyStateTracker::pack()
{
    // A word packs to at most ten bytes.
    if (packed_.size() < 10 * sig_.size())
        packed_.resize(10 * sig_.size());
    std::uint8_t *const begin = packed_.data();
    std::uint8_t *out = begin;
    for (const std::uint64_t word : sig_) {
        std::uint64_t v = word + 1;
        while (v >= 0x80) {
            *out++ = std::uint8_t(v | 0x80);
            v >>= 7;
        }
        *out++ = std::uint8_t(v);
    }
    return std::size_t(out - begin);
}

std::optional<SteadyStateTracker::Skip>
SteadyStateTracker::finishObserve(ClockCycle base,
                                  const std::uint64_t *counters,
                                  std::size_t numCounters)
{
    assert(numCounters <= kMaxCounters);
    const TraceSegment &seg = *seg_;
    const std::size_t k = obsBoundary_;
    // The cursor-boundary offset is part of the state: only
    // boundaries the simulator reached in the same phase compare
    // equal.
    sig_.push_back(obsOffset_);
    const std::size_t len = pack();

    // Most recent matching record = smallest iteration distance m.
    const Record *match = nullptr;
    for (const Record &rec : ring_) {
        if (!rec.valid || rec.boundary >= k || rec.sig.size() != len ||
            std::memcmp(rec.sig.data(), packed_.data(), len) != 0)
            continue;
        if (match == nullptr || rec.boundary > match->boundary)
            match = &rec;
    }

    std::optional<Skip> out;
    std::size_t landing = k;
    if (match != nullptr) {
        const std::size_t m = k - match->boundary;
        // Two consecutive observed boundaries matching at the same
        // distance confirm steady state (K = 2) — or one match
        // suffices when this segment's family was already confirmed
        // earlier in the run (the delta still comes from the
        // same-segment record; only the warm-up is waived).
        const bool confirmed = (lastMatchDist_ == m &&
                                lastMatchBoundary_ == lastObserved_) ||
            std::find(confirmedFamilies_.begin(),
                      confirmedFamilies_.end(),
                      seg.family) != confirmedFamilies_.end();
        if (confirmed) {
            if (std::find(confirmedFamilies_.begin(),
                          confirmedFamilies_.end(),
                          seg.family) == confirmedFamilies_.end())
                confirmedFamilies_.push_back(seg.family);
            // Never extrapolate past the last boundary — and when
            // the cursor sits past the boundary (offset > 0), stop
            // one period short so the landing stays inside the
            // periodic region.  When the segment runs to the very
            // end of the trace, stop one period short too: every
            // simulator resumes by executing the op at the landing
            // cursor, so the landing must be a real op index.
            std::size_t maxK = seg.count - (obsOffset_ > 0 ? 1 : 0);
            if (seg.end() == traceSize_ && maxK == seg.count)
                --maxK;
            const std::size_t groups = maxK > k ? (maxK - k) / m : 0;
            if (groups > 0) {
                Skip skip;
                skip.ops =
                    std::uint64_t(groups) * m * seg.period;
                assert(base > match->base);
                skip.delta = ClockCycle(groups) * (base - match->base);
                for (std::size_t c = 0; c < numCounters; ++c) {
                    skip.counters[c] = std::uint64_t(groups) *
                        (counters[c] - match->counters[c]);
                }
                opsSkipped_ += skip.ops;
                landing = k + groups * m;
                out = skip;
            }
        }
        lastMatchDist_ = m;
        lastMatchBoundary_ = k;
    } else {
        lastMatchDist_ = 0;
    }
    lastObserved_ = k;

    if (out.has_value()) {
        // Fewer than m boundaries remain after the landing; no
        // further skip is possible in this segment, so forget the
        // (now stale-based) records.
        clearRing();
    } else {
        Record &rec = ring_[ringNext_];
        ringNext_ = (ringNext_ + 1) % kRing;
        rec.valid = true;
        rec.boundary = k;
        rec.base = base;
        rec.counters.fill(0);
        for (std::size_t c = 0; c < numCounters; ++c)
            rec.counters[c] = counters[c];
        rec.sig.assign(packed_.begin(),
                       packed_.begin() + std::ptrdiff_t(len));
    }

    if (landing + 1 < seg.count) {
        next_ = seg.base + (landing + 1) * seg.period;
    } else {
        const std::size_t end = seg.end();
        ++segIdx_;
        clearRing();
        resync(end);
    }
    return out;
}

} // namespace mfusim
