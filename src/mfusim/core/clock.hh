/**
 * @file
 * Monotonic wall-clock helpers for the serving tier.
 *
 * Request-lifecycle tracing (obs/req_trace.hh) stamps every phase
 * boundary of every request, so the clock read is on the reactor's
 * hot path.  monoNanos() reads CLOCK_MONOTONIC, which Linux serves
 * from the vDSO — roughly 20 ns, no syscall.  An RDTSC fast path was
 * considered and rejected: spans mix stamps taken on the reactor and
 * worker threads, and CLOCK_MONOTONIC is the only clock that
 * guarantees reads ordered by happens-before are non-decreasing
 * across cores — the phase-sum identity (every phase duration is
 * non-negative and the phases sum exactly to the request total)
 * depends on that.
 *
 * The process-start anchor gives /metrics and /healthz a cheap
 * uptime without any extra state in the service layer.
 */

#ifndef MFUSIM_CORE_CLOCK_HH
#define MFUSIM_CORE_CLOCK_HH

#include <cstdint>
#include <ctime>

namespace mfusim
{

/** Nanoseconds on CLOCK_MONOTONIC (vDSO-fast, cross-thread safe). */
inline std::uint64_t
monoNanos()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return std::uint64_t(ts.tv_sec) * 1000000000ull +
        std::uint64_t(ts.tv_nsec);
}

/** monoNanos() ticks per millisecond. */
constexpr std::uint64_t kNanosPerMilli = 1000000;

/**
 * monoNanos() captured when the process (strictly: this translation
 * unit's static initializers) started.  Stable for the process
 * lifetime.
 */
std::uint64_t processStartNanos();

/** Seconds since processStartNanos(). */
double processUptimeSeconds();

} // namespace mfusim

#endif // MFUSIM_CORE_CLOCK_HH
