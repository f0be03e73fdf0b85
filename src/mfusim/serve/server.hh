/**
 * @file
 * Event-driven HTTP server: epoll reactor + bounded compute pool.
 *
 * Topology: ONE reactor thread owns every socket — the listener, all
 * connection reads (header and body accumulation, HTTP/1.1
 * pipelining), all response writes (gathered writev with
 * per-connection buffer reuse), and every protocol clock (idle park,
 * header/slowloris deadline, write budget).  A fixed pool of worker
 * threads runs ONLY handler compute: the reactor dispatches one
 * parsed request at a time per connection into a bounded task queue
 * and workers hand the finished response back through a completion
 * queue + eventfd wakeup.
 *
 * The shape matters for capacity: a parked keep-alive connection
 * costs a few hundred bytes of reactor state instead of a blocked
 * worker thread, so thousands of idle clients cannot deny service at
 * `--workers 4`, and a slow reader or slowloris writer is bounded by
 * reactor clocks without ever occupying a worker.
 *
 * Admission control moved from the accept edge to the dispatch edge:
 * every connection is accepted (an idle connection is nearly free
 * now), and a parsed request that finds the compute queue full is
 * answered 429 + load-aware Retry-After immediately by the reactor —
 * overload is still visible to clients within one round trip, and
 * the connection survives to retry.
 *
 * Pipelining: every complete request already buffered is parsed (up
 * to ServeOptions::maxPipeline per connection); compute is
 * dispatched strictly serially per connection, so responses come
 * back in request order by construction.
 *
 * Fast path: an optional HttpFastHandler lets the service answer
 * no-compute requests (result-cache hits, liveness probes) inline on
 * the reactor thread — a pipelined batch of cache hits then costs one
 * read syscall, N probes and N writes, with zero worker round trips.
 *
 * The server knows nothing about simulation; it routes every parsed
 * request through a single Handler callback.  SimService
 * (sim_service.hh) provides the mfusim-specific handler.
 *
 * Lifecycle: start() binds and spawns threads (port 0 picks an
 * ephemeral port, readable via port() — this is how tests avoid
 * collisions); stop() performs a graceful drain — stop accepting,
 * close idle connections, finish dispatched requests and flush their
 * responses, join all threads.  stop() is idempotent and also runs
 * from the destructor.
 */

#ifndef MFUSIM_SERVE_SERVER_HH
#define MFUSIM_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mfusim/serve/http.hh"

namespace mfusim
{

class RequestTracer;
struct RequestSpan;

/**
 * Largest ServeOptions::workers: HttpServer's constructor throws
 * ConfigError above it, and `mfusim serve --workers` exits 2.
 */
constexpr unsigned kMaxServeWorkers = 1024;

/** Server capacity and protocol knobs. */
struct ServeOptions
{
    /** TCP port; 0 binds an ephemeral port (see HttpServer::port()). */
    std::uint16_t port = 8100;
    /**
     * Worker threads running handler compute, all started by
     * HttpServer::start(); at most kMaxServeWorkers.
     */
    unsigned workers = 4;
    /** Bounded compute-queue depth; beyond it requests get 429. */
    unsigned queueDepth = 64;
    /**
     * Default per-request wall-clock deadline in ms.  A request may
     * lower (never raise) it with an X-Deadline-Ms header.  Expired
     * requests answer 503 without running the simulation.  Also
     * bounds the body-read phase of a request (408 beyond it).
     */
    unsigned deadlineMs = 30000;
    /** Largest accepted request body; beyond it 413. */
    std::size_t maxBodyBytes = 1 << 20;
    /** Keep-alive idle timeout before a parked connection is closed. */
    unsigned idleTimeoutMs = 5000;
    /**
     * Header-phase deadline in ms once the first request byte has
     * arrived (anti-slowloris; 0 disables the separate bound and
     * falls back to deadlineMs alone).
     */
    unsigned headerTimeoutMs = 5000;
    /**
     * Response-write deadline in ms: a peer that stops draining its
     * receive window is disconnected after this long rather than
     * holding buffered response bytes forever (0 = wait forever).
     */
    unsigned writeTimeoutMs = 10000;
    /**
     * Pipelining bound: parsed-but-unanswered requests held per
     * connection.  Beyond it the reactor simply stops parsing that
     * connection's buffer — backpressure, not an error.
     */
    unsigned maxPipeline = 16;
};

/** Observable server state, exported to /metrics by SimService. */
struct ServerStats
{
    std::uint64_t accepted = 0;     //!< connections accepted
    std::uint64_t rejected = 0;     //!< requests answered 429
    std::uint64_t requests = 0;     //!< requests fully parsed
    std::uint64_t pipelined = 0;    //!< requests parsed behind another
                                    //!< unanswered one (pipelining hits)
    std::uint64_t fastpath = 0;     //!< requests answered inline by the
                                    //!< reactor (no worker dispatch)
    std::uint64_t queueDepth = 0;   //!< compute tasks waiting right now
    std::uint64_t inFlight = 0;     //!< requests being handled right now
    std::uint64_t connections = 0;  //!< connections open right now
    std::uint64_t workerDeaths = 0; //!< workers that died and were respawned
};

/**
 * The request handler.  Receives the parsed request plus the
 * remaining per-request deadline budget in ms; returns the response.
 * Runs on a worker thread; must be thread-safe.  Exceptions escaping
 * the handler become a 500 (ServeError keeps its own httpStatus()).
 */
using HttpHandler =
    std::function<HttpResponse(const HttpRequest &, unsigned budgetMs)>;

/**
 * Optional reactor fast path.  Tried on the REACTOR thread before a
 * request is queued for a worker; returning true with @p *out filled
 * answers the request inline — no task, no context switch, no queue
 * slot.  Return false to fall through to the worker pool.
 *
 * Contract: must never block or compute — a cache probe is the upper
 * bound of acceptable work, because every connection waits behind it.
 * Called only from the reactor thread, so implementations may keep
 * unsynchronized state.  Never consulted for requests whose deadline
 * already expired (the worker path owns the 503).
 */
using HttpFastHandler =
    std::function<bool(const HttpRequest &, HttpResponse *out)>;

/** Uniform JSON error body: {"error": <message>, "status": <status>}. */
HttpResponse jsonErrorResponse(int status, const std::string &message);

class HttpServer
{
  public:
    /**
     * Configure a server; no socket or thread exists until start().
     * @throws ConfigError if options.workers exceeds kMaxServeWorkers.
     */
    HttpServer(ServeOptions options, HttpHandler handler);
    ~HttpServer();

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /**
     * Bind, listen and spawn the reactor + worker threads.
     * @throws ServeError (httpStatus 0 — not request-scoped) on
     *         socket/bind failure, e.g. the port is taken.
     */
    void start();

    /** Graceful drain: stop accepting, finish in-flight, join. */
    void stop();

    /**
     * Install the reactor fast path (see HttpFastHandler).  Call
     * before start(); not synchronized against a running server.
     */
    void setFastHandler(HttpFastHandler handler)
    {
        fastHandler_ = std::move(handler);
    }

    /**
     * Arm request-lifecycle tracing (obs/req_trace.hh).  Call before
     * start(); the tracer must outlive the server.  Null (the
     * default) disarms tracing — the request path then takes no
     * clock reads and touches no ring.  When armed, every request
     * gets a RequestSpan stamped at each phase boundary; the span is
     * finalized and published by the reactor when the response's
     * last byte is written (or at teardown, flagged aborted), and
     * spans that cross the tracer's slow threshold are logged to
     * stderr (rate-capped).
     */
    void setTracer(RequestTracer *tracer) { tracer_ = tracer; }

    /** The bound port (resolves ephemeral port 0 after start()). */
    std::uint16_t port() const { return boundPort_; }

    bool running() const { return running_.load(); }

    /** Point-in-time snapshot of the admission-control counters. */
    ServerStats stats() const;

  private:
    struct Conn;        //!< per-connection reactor state (server.cc)
    struct PendingReq;  //!< one parsed request + its trace span
    struct Task;        //!< one dispatched request
    struct Completion;  //!< one finished response

    void reactorLoop();
    void workerLoop(unsigned workerId);

    // --- reactor-side helpers (called only from reactorLoop) ---
    void acceptReady();
    void connReadable(Conn &conn);
    void connWritable(Conn &conn);
    void parseAndDispatch(Conn &conn);
    void dispatch(Conn &conn, PendingReq pending);
    void beginResponse(Conn &conn, const HttpResponse &response,
                       bool keepAlive, RequestSpan *span = nullptr);
    void flushWrites(Conn &conn);
    void noteWriteProgress(Conn &conn);
    void publishSpan(RequestSpan &span);
    void applyCompletions();
    void scanClocks();
    void beginDrain();
    void closeConn(Conn &conn);
    void wantWrite(Conn &conn, bool enable);

    /**
     * Re-look-up a connection after a call that may have closed (and
     * freed) it — parseAndDispatch / flushWrites both can.  Returns
     * the Conn only if the slot still holds the same generation;
     * nullptr means the connection died and must not be touched.
     */
    Conn *liveConn(int fd, std::uint64_t gen);

    /**
     * Seconds a 429'd client should back off, scaled with the
     * current backlog: 1 + (queued + in-flight) / workers, clamped
     * to [1, 60].  An idle server sheds a burst with "retry in 1s";
     * a deeply backlogged one spreads the retry storm out.
     */
    unsigned retryAfterSeconds() const;

    ServeOptions options_;
    HttpHandler handler_;
    HttpFastHandler fastHandler_;   //!< optional; reactor-inline answers
    RequestTracer *tracer_ = nullptr;   //!< optional; see setTracer()

    int listenFd_ = -1;
    int epollFd_ = -1;
    int wakeFd_ = -1;               //!< eventfd: workers -> reactor
    bool listenArmed_ = false;      //!< listener registered in epoll
    std::uint16_t boundPort_ = 0;
    std::atomic<bool> running_{false};
    std::atomic<bool> stopping_{false};

    /** Connection table indexed by fd (dense, reactor-only). */
    std::vector<std::unique_ptr<Conn>> conns_;
    std::uint64_t nextGen_ = 1;     //!< guards completions vs fd reuse
    std::uint64_t lastClockScanMs_ = 0;

    // Compute queue: reactor pushes, workers pop.
    mutable std::mutex taskMutex_;
    std::condition_variable taskCv_;
    std::deque<Task> tasks_;

    // Completion queue: workers push + eventfd wakeup, reactor drains.
    std::mutex completionMutex_;
    std::vector<Completion> completions_;

    std::thread reactorThread_;
    /**
     * Guards workers_: a dying worker (worker.die fault, or any
     * escaped exception) respawns its replacement from its own
     * thread, racing stop()'s join loop.
     */
    mutable std::mutex workersMutex_;
    std::vector<std::thread> workers_;

    // Relaxed atomics: the request path and /metrics never contend
    // on a stats lock.
    struct AtomicStats
    {
        std::atomic<std::uint64_t> accepted{ 0 };
        std::atomic<std::uint64_t> rejected{ 0 };
        std::atomic<std::uint64_t> requests{ 0 };
        std::atomic<std::uint64_t> pipelined{ 0 };
        std::atomic<std::uint64_t> fastpath{ 0 };
        std::atomic<std::uint64_t> queued{ 0 };
        std::atomic<std::uint64_t> inFlight{ 0 };
        std::atomic<std::uint64_t> connections{ 0 };
        std::atomic<std::uint64_t> workerDeaths{ 0 };
    };
    AtomicStats stats_;
};

} // namespace mfusim

#endif // MFUSIM_SERVE_SERVER_HH
