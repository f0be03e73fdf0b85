/**
 * @file
 * RequestTracer implementation: seqlock span rings, phase/endpoint
 * histograms, the Perfetto exporter and the slow-request formatter.
 */

#include "mfusim/obs/req_trace.hh"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdio>
#include <new>

#include "mfusim/core/clock.hh"
#include "mfusim/obs/trace_event.hh"

namespace mfusim
{

// ------------------------------------------------------------------- names

const char *
reqPhaseName(unsigned phase)
{
    static const char *const names[kNumReqPhases] = {
        "parse",        // recv -> headers parsed
        "dispatch",     // parsed -> routed
        "queue",        // routed -> handler start (worker queue wait)
        "compute",      // handler start -> handler done
        "serialize",    // handler done -> response head serialized
        "write_first",  // serialized -> first byte on the wire
        "write_drain",  // first byte -> last byte on the wire
    };
    assert(phase < kNumReqPhases);
    return names[phase];
}

std::string_view
endpointForPath(std::string_view path)
{
    if (path == "/v1/simulate")
        return "simulate";
    if (path == "/v1/sweep")
        return "sweep";
    if (path == "/healthz")
        return "healthz";
    if (path == "/metrics")
        return "metrics";
    if (path == "/v1/trace")
        return "trace";
    return "other";
}

// ---------------------------------------------------------------- SpanRing

static_assert(alignof(std::max_align_t) >=
                  std::atomic_ref<std::uint64_t>::required_alignment,
              "calloc'd slot words must suit atomic_ref");

SpanRing::SpanRing(std::size_t capacity)
    : capacity_(capacity ? capacity : 1),
      words_(static_cast<std::uint64_t *>(
          std::calloc(capacity_ * kSlotWords, sizeof(std::uint64_t))))
{
    if (!words_)
        throw std::bad_alloc();
}

void
SpanRing::push(const RequestSpan &span)
{
    const std::size_t slot = next_ % capacity_;
    ++next_;

    std::uint64_t words[kWords] = {};
    std::memcpy(words, &span, sizeof(span));

    // Seqlock write: odd sequence marks the slot torn.  The release
    // fence orders the odd store before the payload stores; the
    // final release store publishes the payload to readers that
    // observe the even sequence.
    const std::atomic_ref<std::uint64_t> seq = word(slot, 0);
    const std::uint64_t s = seq.load(std::memory_order_relaxed);
    seq.store(s + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    for (std::size_t i = 0; i < kWords; ++i)
        word(slot, 1 + i).store(words[i], std::memory_order_relaxed);
    seq.store(s + 2, std::memory_order_release);

    pushed_.store(pushed_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
}

void
SpanRing::snapshot(std::vector<RequestSpan> &out) const
{
    for (std::size_t i = 0; i < capacity_; ++i) {
        const std::atomic_ref<std::uint64_t> seq = word(i, 0);
        // Bounded retries: the writer laps rarely (one push per
        // completed request); a persistently torn slot is dropped
        // rather than stalling the snapshot.
        for (int attempt = 0; attempt < 4; ++attempt) {
            const std::uint64_t s1 = seq.load(std::memory_order_acquire);
            if (s1 == 0 || (s1 & 1))
                break;      // never written, or mid-write: retry
            std::uint64_t words[kWords];
            for (std::size_t w = 0; w < kWords; ++w)
                words[w] = word(i, 1 + w).load(std::memory_order_relaxed);
            std::atomic_thread_fence(std::memory_order_acquire);
            const std::uint64_t s2 = seq.load(std::memory_order_relaxed);
            if (s1 != s2)
                continue;   // overwritten under us
            RequestSpan span;
            std::memcpy(&span, words, sizeof(span));
            out.push_back(span);
            break;
        }
    }
}

// ----------------------------------------------------------- RequestTracer

namespace
{

/** Global armed flag; see reqTraceArmed() in the header. */
std::atomic<bool> g_reqTraceArmed{ false };

// 36 log2 buckets span 1 ns .. ~34 s before the overflow bucket —
// ample for request latencies — at 36 counters per histogram.
constexpr std::size_t kLatencyBuckets = 36;
constexpr double kNanosToSeconds = 1e-9;

// Slow-log rate cap: at most kSlowLogBurst lines per window so a
// latency storm cannot turn the log into its own bottleneck.
constexpr std::uint64_t kSlowLogWindowNs = 1000000000ull;
constexpr std::uint32_t kSlowLogBurst = 10;

// Retained fault marks; old fires age out like ring spans do.
constexpr std::size_t kMaxFaultMarks = 256;

const char *const kEndpointNames[] = {
    "simulate", "sweep", "healthz", "metrics", "trace", "other",
};

} // namespace

bool
reqTraceArmed()
{
    return g_reqTraceArmed.load(std::memory_order_relaxed);
}

void
setReqTraceArmed(bool armed)
{
    g_reqTraceArmed.store(armed, std::memory_order_relaxed);
}

SpanAnnotations &
spanAnnotations()
{
    thread_local SpanAnnotations annotations;
    return annotations;
}

RequestTracer::RequestTracer(const ReqTraceOptions &options)
    : options_(options)
{
    rings_.reserve(options_.workers + 1);
    for (std::uint32_t i = 0; i <= options_.workers; ++i)
        rings_.push_back(
            std::make_unique<SpanRing>(options_.ringCapacity));

    for (unsigned i = 0; i < kNumReqPhases; ++i)
        phase_[i] = &metrics_.histogramLog2(
            std::string("http.phase_seconds{phase=") +
                reqPhaseName(i) + "}",
            kLatencyBuckets, kNanosToSeconds);
    total_ = &metrics_.histogramLog2(
        "http.phase_seconds{phase=total}", kLatencyBuckets,
        kNanosToSeconds);
    for (const char *name : kEndpointNames)
        endpoints_.emplace_back(
            name, &metrics_.histogramLog2(
                      std::string("http.request_seconds{endpoint=") +
                          name + "}",
                      kLatencyBuckets, kNanosToSeconds));
    published_ = &metrics_.counter("http.trace.spans_published");
    slowLogged_ = &metrics_.counter("http.trace.slow_requests");

    setReqTraceArmed(true);
}

RequestTracer::~RequestTracer()
{
    setReqTraceArmed(false);
}

Histogram *
RequestTracer::endpointHistogram(const char *endpoint)
{
    for (auto &[name, histogram] : endpoints_)
        if (name == endpoint)
            return histogram;
    return endpoints_.back().second;    // "other"
}

bool
RequestTracer::takeSlowToken(std::uint64_t nowNs)
{
    if (nowNs - slowWindowStartNs_ >= kSlowLogWindowNs) {
        slowWindowStartNs_ = nowNs;
        slowWindowCount_ = 0;
    }
    if (slowWindowCount_ >= kSlowLogBurst)
        return false;
    ++slowWindowCount_;
    return true;
}

bool
RequestTracer::publish(RequestSpan &span)
{
    span.seq = ++nextSeq_;

    // Clamp unset (zero) or retrograde stamps to their predecessor:
    // every phase delta becomes non-negative and the telescoping
    // phase-sum identity holds exactly even for aborted requests.
    for (unsigned i = 1; i < kNumStamps; ++i)
        if (span.ts[i] < span.ts[i - 1])
            span.ts[i] = span.ts[i - 1];

    const std::uint8_t ring =
        span.worker < rings_.size() ? span.worker : 0;
    rings_[ring]->push(span);

    const std::uint64_t total = span.totalNs();
    {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        for (unsigned i = 0; i < kNumReqPhases; ++i)
            phase_[i]->record(span.phaseNs(i));
        total_->record(total);
        endpointHistogram(span.endpoint)->record(total);
        published_->increment();
    }

    if (options_.slowRequestNs == 0 || total < options_.slowRequestNs)
        return false;
    if (!takeSlowToken(span.ts[kStampLastWrite]))
        return false;
    {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        slowLogged_->increment();
    }
    return true;
}

void
RequestTracer::recordFault(std::string_view point)
{
    FaultMark mark;
    mark.ns = monoNanos();
    const std::size_t n = point.size() < sizeof(mark.point) - 1
        ? point.size()
        : sizeof(mark.point) - 1;
    std::memcpy(mark.point, point.data(), n);

    std::lock_guard<std::mutex> lock(faultMutex_);
    if (faults_.size() >= kMaxFaultMarks) {
        faults_.erase(faults_.begin());
        ++faultDropped_;
    }
    faults_.push_back(mark);
}

std::vector<RequestSpan>
RequestTracer::snapshot(std::size_t lastN) const
{
    std::vector<RequestSpan> spans;
    spans.reserve(rings_.size() * options_.ringCapacity);
    for (const auto &ring : rings_)
        ring->snapshot(spans);
    std::sort(spans.begin(), spans.end(),
              [](const RequestSpan &a, const RequestSpan &b) {
                  return a.seq < b.seq;
              });
    if (lastN && spans.size() > lastN)
        spans.erase(spans.begin(),
                    spans.end() - std::ptrdiff_t(lastN));
    return spans;
}

std::vector<FaultMark>
RequestTracer::faultMarks() const
{
    std::lock_guard<std::mutex> lock(faultMutex_);
    return faults_;
}

void
RequestTracer::appendMetrics(MetricsRegistry &out) const
{
    std::lock_guard<std::mutex> lock(metricsMutex_);
    out.merge(metrics_);
}

// ---------------------------------------------------------------- exporter

namespace
{

std::string
spanArgs(const RequestSpan &span)
{
    std::string out;
    out.reserve(256);
    const auto kv = [&](const char *key, std::uint64_t value) {
        if (!out.empty())
            out += ", ";
        out += '"';
        out += key;
        out += "\": ";
        out += std::to_string(value);
    };
    kv("seq", span.seq);
    kv("status", span.status);
    kv("fd", std::uint64_t(std::uint32_t(span.fd)));
    kv("gen", span.gen);
    kv("worker", span.worker);
    kv("fastpath", (span.flags & RequestSpan::kFlagFastpath) != 0);
    kv("cache_hit", (span.flags & RequestSpan::kFlagCacheHit) != 0);
    kv("pipelined", (span.flags & RequestSpan::kFlagPipelined) != 0);
    kv("aborted", (span.flags & RequestSpan::kFlagAborted) != 0);
    kv("audited", (span.flags & RequestSpan::kFlagAudited) != 0);
    kv("cache_ns", span.cacheNs);
    kv("total_ns", span.totalNs());
    out += ", \"phase_ns\": {";
    for (unsigned i = 0; i < kNumReqPhases; ++i) {
        if (i)
            out += ", ";
        out += '"';
        out += reqPhaseName(i);
        out += "\": ";
        out += std::to_string(span.phaseNs(i));
    }
    out += "}";
    return out;
}

} // namespace

void
RequestTracer::writeServeTrace(std::ostream &os,
                               std::size_t lastN) const
{
    const std::vector<RequestSpan> spans = snapshot(lastN);
    const std::vector<FaultMark> faults = faultMarks();

    // Normalize timestamps to the oldest retained event so traces
    // open near t=0 regardless of process uptime.
    std::uint64_t base = ~std::uint64_t(0);
    for (const RequestSpan &span : spans)
        base = std::min(base, span.ts[kStampRecv]);
    for (const FaultMark &mark : faults)
        base = std::min(base, mark.ns);
    if (base == ~std::uint64_t(0))
        base = 0;
    const auto rel = [&](std::uint64_t ns) {
        return trace_event::microsFromNanos(ns - base);
    };

    os << "{\n\"schema\": \"mfusim-serve-trace-v1\",\n"
       << "\"traceEvents\": [";
    bool first = true;
    trace_event::processName(os, first, "mfusim serve");
    trace_event::threadName(os, first, 1, "reactor", 1);
    for (std::uint32_t w = 1; w <= options_.workers; ++w)
        trace_event::threadName(os, first, 1 + std::int64_t(w),
                                "worker " + std::to_string(w),
                                1 + std::int64_t(w));

    for (const RequestSpan &span : spans) {
        const std::string name(span.endpoint);
        const std::string idTag =
            "\"cat\": \"request\", \"id\": " +
            std::to_string(span.seq);
        const std::string seqArg =
            "\"seq\": " + std::to_string(span.seq);

        // Request lifecycle as an async pair: Perfetto lays
        // concurrent ids out in parallel lanes, so a pipelined
        // burst reads as a ladder.  The "e" event carries the full
        // phase breakdown (check_obs_json.py re-verifies the
        // phase-sum identity from these args alone).
        trace_event::event(os, first, name, "b", 1,
                           rel(span.ts[kStampRecv]), "", "", idTag);

        // Handler occupancy on the executing track — the reactor
        // (tid 1) for fast-path answers, the worker's track
        // otherwise.  Tracks never self-overlap: workers compute
        // serially and the reactor is a single thread.
        const std::int64_t tid =
            span.worker == 0 ? 1 : 1 + std::int64_t(span.worker);
        const std::uint64_t computeNs = span.phaseNs(3);
        trace_event::event(
            os, first, name, "X", tid, rel(span.ts[kStampStart]),
            trace_event::microsFromNanos(computeNs), seqArg);
        if (span.cacheNs) {
            // Cache probe nests inside the compute slice (clamped
            // so the nesting is well-formed even if the annotation
            // outlived the handler by a few ns).
            const std::uint64_t probeNs =
                std::min(span.cacheNs, computeNs);
            trace_event::event(
                os, first, "cache probe", "X", tid,
                rel(span.ts[kStampStart]),
                trace_event::microsFromNanos(probeNs), seqArg);
        }

        trace_event::event(os, first, name, "e", 1,
                           rel(span.ts[kStampLastWrite]), "",
                           spanArgs(span), idTag);
    }

    for (const FaultMark &mark : faults)
        trace_event::event(os, first,
                           std::string("fault ") + mark.point, "i", 1,
                           rel(mark.ns), "", "", "\"s\": \"t\"");

    os << "\n],\n\"displayTimeUnit\": \"ms\"\n}\n";
}

// ----------------------------------------------------------------- slow log

std::string
formatSlowLine(const RequestSpan &span)
{
    char buf[512];
    int n = std::snprintf(
        buf, sizeof(buf),
        "slow-request seq=%llu endpoint=%s status=%u fd=%d gen=%u "
        "worker=%u fastpath=%u cache_hit=%u pipelined=%u aborted=%u "
        "total_ms=%.3f",
        static_cast<unsigned long long>(span.seq), span.endpoint,
        unsigned(span.status), span.fd, span.gen,
        unsigned(span.worker),
        unsigned((span.flags & RequestSpan::kFlagFastpath) != 0),
        unsigned((span.flags & RequestSpan::kFlagCacheHit) != 0),
        unsigned((span.flags & RequestSpan::kFlagPipelined) != 0),
        unsigned((span.flags & RequestSpan::kFlagAborted) != 0),
        double(span.totalNs()) * 1e-6);
    std::string out(buf, n > 0 ? std::size_t(n) : 0);
    for (unsigned i = 0; i < kNumReqPhases; ++i) {
        n = std::snprintf(buf, sizeof(buf), " %s_us=%.1f",
                          reqPhaseName(i),
                          double(span.phaseNs(i)) * 1e-3);
        out.append(buf, n > 0 ? std::size_t(n) : 0);
    }
    n = std::snprintf(buf, sizeof(buf), " cache_us=%.1f",
                      double(span.cacheNs) * 1e-3);
    out.append(buf, n > 0 ? std::size_t(n) : 0);
    return out;
}

} // namespace mfusim
