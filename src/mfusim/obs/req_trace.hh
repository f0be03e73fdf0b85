/**
 * @file
 * Request-lifecycle tracing for the serve tier: spans, per-phase
 * histograms, and an always-on flight recorder.
 *
 * Every HTTP request owns one RequestSpan — a trivially-copyable
 * record of monotonic-clock stamps at each phase boundary (bytes
 * received, headers parsed, dispatched, handler start/done,
 * serialized, first byte written, last byte written).  The reactor
 * thread finalizes and publishes the span when the response's last
 * byte leaves the socket (or at teardown for aborted requests), so
 * there is exactly one writer for all rings and histograms.
 *
 * The phase taxonomy is the telescoping decomposition of the stamp
 * sequence: each phase is the delta between consecutive stamps, so
 * the phases sum to the request total *exactly* — an accounting
 * identity in the spirit of the simulator's cycle attribution
 * (Pleszkun & Sohi decompose issue-slot loss the same way), verified
 * by tests and by tools/check_obs_json.py on every exported span.
 *
 * Three consumers:
 *  - per-phase and per-endpoint latency histograms (log2 buckets,
 *    nanosecond recording, rendered as Prometheus _seconds families);
 *  - the flight recorder: per-worker seqlock ring buffers
 *    (overwrite-oldest) exported as Chrome/Perfetto trace JSON via
 *    /v1/trace?last=N or a SIGUSR2 dump;
 *  - a rate-capped slow-request structured log (--slow-request-ms).
 *
 * Disarmed cost is one branch in the server (the tracer pointer is
 * null); armed cost is a handful of vDSO clock reads per request
 * plus ~100 ns of ring/histogram bookkeeping on the reactor.
 */

#ifndef MFUSIM_OBS_REQ_TRACE_HH
#define MFUSIM_OBS_REQ_TRACE_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "mfusim/obs/metrics.hh"

namespace mfusim
{

/**
 * Stamp indices of a request span, in lifecycle order.  Phase i
 * (i >= 1) is the interval [ts[i-1], ts[i]].
 */
enum ReqStamp : unsigned
{
    kStampRecv = 0,       //!< first byte of the request read
    kStampParsed,         //!< request line + headers parsed
    kStampDispatch,       //!< routed (queued to a worker or fast-path)
    kStampStart,          //!< handler compute started
    kStampDone,           //!< handler compute finished
    kStampSerialized,     //!< response head serialized
    kStampFirstWrite,     //!< first response byte on the socket
    kStampLastWrite,      //!< last response byte on the socket
    kNumStamps
};

/** One traced request.  Trivially copyable — ring slots copy words. */
struct RequestSpan
{
    static constexpr std::uint8_t kFlagFastpath = 1;
    static constexpr std::uint8_t kFlagCacheHit = 2;
    static constexpr std::uint8_t kFlagPipelined = 4;
    static constexpr std::uint8_t kFlagAborted = 8;
    static constexpr std::uint8_t kFlagAudited = 16;

    std::uint64_t seq = 0;              //!< publish order, 1-based
    std::uint64_t ts[kNumStamps] = {};  //!< monoNanos() stamps
    std::uint64_t cacheNs = 0;          //!< result-cache probe time
    std::int32_t fd = -1;
    std::uint32_t gen = 0;
    std::uint16_t status = 0;
    std::uint8_t worker = 0;            //!< 0 = reactor (fast path)
    std::uint8_t flags = 0;
    char endpoint[14] = {};             //!< short name, NUL-padded

    void setEndpoint(std::string_view name)
    {
        const std::size_t n =
            name.size() < sizeof(endpoint) - 1 ? name.size()
                                               : sizeof(endpoint) - 1;
        std::memset(endpoint, 0, sizeof(endpoint));
        std::memcpy(endpoint, name.data(), n);
    }
    std::uint64_t totalNs() const
    {
        return ts[kStampLastWrite] - ts[kStampRecv];
    }
    std::uint64_t phaseNs(unsigned phase) const
    {
        return ts[phase + 1] - ts[phase];
    }
};

static_assert(std::is_trivially_copyable_v<RequestSpan>,
              "ring slots copy spans word-wise");

/** kNumStamps - 1 phases; phaseName(i) names [ts[i], ts[i+1]]. */
constexpr unsigned kNumReqPhases = kNumStamps - 1;
const char *reqPhaseName(unsigned phase);

/** Maps a request path to its short endpoint name ("simulate", ...). */
std::string_view endpointForPath(std::string_view path);

/**
 * Fixed-capacity overwrite-oldest span ring.  Single writer (the
 * reactor); any thread may snapshot concurrently.  Slots are
 * seqlocks: an odd sequence number marks a write in progress, and
 * the payload is copied as relaxed atomic words, so a snapshot
 * during overwrite retries (bounded) or skips the slot — readers
 * never block the writer.
 *
 * The slots are plain words in zero-filled (calloc'd) storage,
 * accessed through std::atomic_ref, so an idle ring costs address
 * space only: a page becomes resident when the writer first reaches
 * it, and a sequence word that still reads 0 marks a slot never
 * written.
 */
class SpanRing
{
  public:
    explicit SpanRing(std::size_t capacity);

    void push(const RequestSpan &span);
    /** Every stable slot, unsorted; torn slots are skipped. */
    void snapshot(std::vector<RequestSpan> &out) const;
    std::uint64_t pushed() const
    {
        return pushed_.load(std::memory_order_relaxed);
    }
    std::size_t capacity() const { return capacity_; }

  private:
    static constexpr std::size_t kWords =
        (sizeof(RequestSpan) + 7) / 8;
    /** Slot layout: the sequence word, then the payload words. */
    static constexpr std::size_t kSlotWords = 1 + kWords;

    struct FreeWords
    {
        void operator()(std::uint64_t *words) const { std::free(words); }
    };

    /** The atomic view of word @p index of slot @p slot. */
    std::atomic_ref<std::uint64_t>
    word(std::size_t slot, std::size_t index) const
    {
        return std::atomic_ref<std::uint64_t>(
            words_[slot * kSlotWords + index]);
    }

    std::size_t capacity_;
    std::unique_ptr<std::uint64_t[], FreeWords> words_;
    std::uint64_t next_ = 0;                //!< writer-only cursor
    std::atomic<std::uint64_t> pushed_{ 0 };
};

/** A fault-injection fire, marked on the trace timeline. */
struct FaultMark
{
    std::uint64_t ns = 0;       //!< monoNanos() at fire time
    char point[24] = {};        //!< fault point name, truncated
};

struct ReqTraceOptions
{
    std::size_t ringCapacity = 2048;    //!< spans per ring
    std::uint32_t workers = 0;          //!< worker count (ring 1..W)
    std::uint64_t slowRequestNs = 0;    //!< 0 = slow log disabled
};

/**
 * The serve tier's tracing hub: owns one SpanRing per track (ring 0
 * is the reactor fast path, ring 1..workers the worker threads), the
 * phase/endpoint histograms, and the fault-mark ring.
 *
 * publish() must be called from the reactor thread only; everything
 * else is safe from any thread.
 */
class RequestTracer
{
  public:
    explicit RequestTracer(const ReqTraceOptions &options);
    ~RequestTracer();

    RequestTracer(const RequestTracer &) = delete;
    RequestTracer &operator=(const RequestTracer &) = delete;

    std::uint32_t workers() const { return options_.workers; }

    /**
     * Finalize and record @p span: assign the publish sequence
     * number, clamp unset/retrograde stamps so every phase delta is
     * non-negative and the phase-sum identity holds exactly, feed
     * the histograms and push into the span's worker ring.  Reactor
     * thread only.  Returns true if the span crossed the slow-log
     * threshold and won its rate-limit token (caller prints).
     */
    bool publish(RequestSpan &span);

    /** Record a fault-injection fire (any thread, rare). */
    void recordFault(std::string_view point);

    /** The last @p lastN published spans, oldest first (0 = all). */
    std::vector<RequestSpan> snapshot(std::size_t lastN) const;
    std::vector<FaultMark> faultMarks() const;

    /** Merge the tracing histograms + counters into @p out. */
    void appendMetrics(MetricsRegistry &out) const;

    /**
     * Export the flight recorder as Chrome/Perfetto trace-event JSON
     * (schema "mfusim-serve-trace-v1"): one track for the reactor,
     * one per worker, an async lane per in-flight request with the
     * full phase breakdown in args, and fault fires as instant
     * events.  @p lastN = 0 exports every retained span.
     */
    void writeServeTrace(std::ostream &os, std::size_t lastN) const;

  private:
    Histogram *endpointHistogram(const char *endpoint);
    bool takeSlowToken(std::uint64_t nowNs);

    ReqTraceOptions options_;
    std::vector<std::unique_ptr<SpanRing>> rings_;
    std::uint64_t nextSeq_ = 0;             //!< reactor-only

    mutable std::mutex metricsMutex_;
    MetricsRegistry metrics_;
    Histogram *phase_[kNumReqPhases];
    Histogram *total_;
    std::vector<std::pair<std::string, Histogram *>> endpoints_;
    Counter *published_;
    Counter *slowLogged_;

    // Slow-log token bucket (reactor-only state).
    std::uint64_t slowWindowStartNs_ = 0;
    std::uint32_t slowWindowCount_ = 0;

    mutable std::mutex faultMutex_;
    std::vector<FaultMark> faults_;         //!< bounded, oldest dropped
    std::size_t faultDropped_ = 0;
};

/**
 * Global armed flag, mirrored from the tracer's lifetime by the
 * server: lets the service layer (cache probe timing, audit flag)
 * skip its annotation clock reads when tracing is off without a
 * reference to the tracer.
 */
bool reqTraceArmed();
void setReqTraceArmed(bool armed);

/**
 * Handler-side span annotations.  The worker (or the reactor, on
 * the fast path) resets this thread-local before invoking the
 * handler; the service layer fills it in; the caller folds it into
 * the span afterwards.  Thread-locality makes it race-free without
 * threading a context object through every handler signature.
 */
struct SpanAnnotations
{
    bool cacheHit = false;
    bool audited = false;
    std::uint64_t cacheNs = 0;
};

SpanAnnotations &spanAnnotations();

/**
 * One-line structured slow-request log record
 * ("slow-request endpoint=... total_ms=... phases_us ...").
 */
std::string formatSlowLine(const RequestSpan &span);

} // namespace mfusim

#endif // MFUSIM_OBS_REQ_TRACE_HH
