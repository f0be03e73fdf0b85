/**
 * @file
 * Per-op cycle times over a sliding span of op indices.
 *
 * RuuSim's result times and MultiIssueSim's completion times are read
 * only for ops near the machine's window: the ops in flight and the
 * producers they name.  OpTimeWindow holds the times of ops [lo(),
 * hi()) in one buffer, op q at q - lo(), so a run keeps state for its
 * window and segment, not for the whole trace.
 *
 * What an op outside the window reads as is the owning simulator's
 * rule, and the simulator decides which ops may leave: it evicts an
 * op only when no later read can tell its time from that rule's
 * answer.  A simulator evicts only once the buffer is full; then
 * every evictable op at the front leaves at once and the rest move to
 * the front, so each op moves O(1) times on average.  When the oldest
 * op must stay, the buffer doubles instead, so it grows with the
 * longest live span a run meets and never past it.
 */

#ifndef MFUSIM_SIM_OP_TIME_WINDOW_HH
#define MFUSIM_SIM_OP_TIME_WINDOW_HH

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <vector>

#include "mfusim/core/types.hh"

namespace mfusim
{

/**
 * Ops a simulator opens ahead of its cursor at once, so that most
 * steps find their op already held and pay one compare.
 */
constexpr std::size_t kOpTimeChunk = 64;

class OpTimeWindow
{
  public:
    /** An empty window of at least @p capacity slots, at op 0. */
    explicit OpTimeWindow(std::size_t capacity)
        : times_(std::bit_ceil(capacity < 2 ? 2 : capacity))
    {
    }

    /** Oldest held op. */
    std::size_t lo() const { return lo_; }
    /** One past the newest held op. */
    std::size_t hi() const { return lo_ + size_; }

    /** True when op @p q is held (an op id past the trace is not). */
    bool holds(std::size_t q) const { return q - lo_ < size_; }

    /** Time of held op @p q. */
    ClockCycle &
    operator[](std::size_t q)
    {
        assert(holds(q));
        return times_[q - lo_];
    }

    ClockCycle
    operator[](std::size_t q) const
    {
        assert(holds(q));
        return times_[q - lo_];
    }

    /**
     * The window's layout, for a scheduling loop to keep in
     * registers: valid until the next open() or rekey().
     */
    struct View
    {
        ClockCycle *times;
        std::size_t lo;
        std::size_t size;

        bool holds(std::size_t q) const { return q - lo < size; }
        ClockCycle &operator[](std::size_t q) const { return times[q - lo]; }
    };

    View view() { return { times_.data(), lo_, size_ }; }

    /** True when ops up to @p newHi fit without evicting or growing. */
    bool fits(std::size_t newHi) const { return newHi - lo_ <= times_.size(); }

    /**
     * Evict the held ops at the front for which @p evictable(q, time)
     * holds, oldest first, and move the rest to the front.  When the
     * rest fill more than half the buffer, it doubles, so at least as
     * many ops open before the next eviction as this one moved.
     * Takes @p evictable by value: a predicate that captures only
     * values keeps a scheduling loop's variables out of memory.
     */
    template <class Evictable>
    __attribute__((noinline)) void
    evict(Evictable evictable)
    {
        std::size_t gone = 0;
        while (gone < size_ && evictable(lo_ + gone, times_[gone]))
            ++gone;
        std::copy(times_.begin() + std::ptrdiff_t(gone),
                  times_.begin() + std::ptrdiff_t(size_), times_.begin());
        lo_ += gone;
        size_ -= gone;
        if (2 * size_ > times_.size())
            times_.resize(2 * times_.size());
    }

    /**
     * Hold ops up to @p newHi, each new one at time @p fill, doubling
     * the buffer when they do not fit.
     */
    inline __attribute__((always_inline)) void
    open(std::size_t newHi, ClockCycle fill)
    {
        if (!fits(newHi)) [[unlikely]]
            reserve(newHi - lo_);
        ClockCycle *const times = times_.data();
        for (std::size_t q = hi(); q < newHi; ++q)
            times[q - lo_] = fill;
        size_ = newHi - lo_;
    }

    /** Grow to hold at least @p n ops. */
    __attribute__((noinline)) void
    reserve(std::size_t n)
    {
        if (n > times_.size())
            times_.resize(std::bit_ceil(n));
    }

    /**
     * Hold ops [@p lo, @p hi) instead, their times unset: the caller
     * writes each.
     */
    void
    rekey(std::size_t lo, std::size_t hi)
    {
        assert(lo <= hi);
        reserve(hi - lo);
        lo_ = lo;
        size_ = hi - lo;
    }

  private:
    std::vector<ClockCycle> times_;
    std::size_t lo_ = 0;
    std::size_t size_ = 0;
};

} // namespace mfusim

#endif // MFUSIM_SIM_OP_TIME_WINDOW_HH
