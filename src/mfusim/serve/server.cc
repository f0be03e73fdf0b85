/**
 * @file
 * HttpServer implementation: epoll reactor + bounded worker pool.
 *
 * Single-writer discipline: every Conn is owned by the reactor
 * thread.  Workers never touch sockets — they receive a parsed
 * HttpRequest by value and post an HttpResponse back through the
 * completion queue, keyed by (fd, generation) so a completion for a
 * connection that died in the meantime is dropped instead of being
 * written to a recycled fd.
 */

#include "mfusim/serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "mfusim/core/clock.hh"
#include "mfusim/core/error.hh"
#include "mfusim/core/faultpoint.hh"
#include "mfusim/core/lexical.hh"
#include "mfusim/obs/req_trace.hh"
#include "mfusim/serve/json.hh"

namespace mfusim
{

namespace
{

/**
 * Thrown by the worker.die fault point to simulate a worker thread
 * dying mid-request (the closest portable stand-in for a crashed
 * thread that the process itself survives).  Caught only in
 * workerLoop(), which respawns a replacement.
 */
struct WorkerDeathFault
{
};

/** Clock-scan cadence: protocol deadlines are enforced within this. */
constexpr std::uint64_t kClockScanMs = 50;

/** Listener re-arm delay after fd exhaustion (EMFILE/ENFILE). */
constexpr std::uint64_t kAcceptBackoffMs = 100;

/**
 * Responses up to this size are corked into the connection's head
 * buffer so a pipelined burst of small answers (cache hits, errors)
 * drains in ONE writev.  Larger bodies are moved, not copied, and
 * must be the last response of their burst (see beginResponse).
 */
constexpr std::size_t kInlineBodyBytes = 16u << 10;

} // namespace

HttpResponse
jsonErrorResponse(int status, const std::string &message)
{
    Json body = Json::object();
    body.set("error", Json(message));
    body.set("status", Json(std::int64_t(status)));
    return HttpResponse(status, "application/json", body.dump() + "\n");
}

/**
 * One parsed request and its trace span, awaiting dispatch.  The
 * span rides every hop of the request (parsed deque, task queue,
 * completion queue, write queue) so each thread stamps its own phase
 * boundaries into private state — no shared span storage, no locks.
 * Disarmed, the span is dead weight of ~100 zeroed bytes per move.
 */
struct HttpServer::PendingReq
{
    HttpRequest request;
    RequestSpan span;
};

/** One dispatched request, in flight toward a worker. */
struct HttpServer::Task
{
    int fd = -1;
    std::uint64_t gen = 0;
    HttpRequest request;
    RequestSpan span;
    unsigned budgetMs = 0;
};

/** One finished response, in flight back toward the reactor. */
struct HttpServer::Completion
{
    int fd = -1;
    std::uint64_t gen = 0;
    HttpResponse response;
    RequestSpan span;
    bool killConn = false;  //!< worker died: drop the connection
};

/**
 * Per-connection reactor state — the entire cost of a parked
 * keep-alive client.  Buffers keep their capacity across requests on
 * the same connection (that is the "no allocation on the hit path"
 * half of the pipelining story; the gathered writev is the other).
 */
struct HttpServer::Conn
{
    int fd = -1;
    std::uint64_t gen = 0;
    std::uint32_t events = 0;       //!< epoll interest currently armed

    // ---- read side ----
    std::string in;                 //!< unparsed request bytes
    std::size_t inOff = 0;          //!< parse cursor into `in`
    std::deque<PendingReq> parsed;  //!< pipelined, awaiting dispatch
    bool peerEof = false;
    std::uint64_t recvNs = 0;       //!< first-byte stamp (traced only)

    // ---- compute side ----
    bool computing = false;         //!< one request at a worker
    bool curKeepAlive = true;       //!< keep-alive of the request in flight

    // ---- write side (corked burst + optional large body) ----
    std::string head;               //!< reused burst buffer: heads and
                                    //!< small bodies, write order
    std::string body;               //!< one large body, always last
    std::size_t headSent = 0;
    std::size_t bodySent = 0;
    bool writing = false;
    bool closeAfterWrite = false;

    /**
     * Spans of corked responses awaiting their bytes on the wire
     * (traced only).  Offsets index the burst stream (head bytes
     * then the large body); responses cork in answer order, so the
     * deque pops strictly from the front as headSent + bodySent
     * advances.
     */
    struct PendingWrite
    {
        RequestSpan span;
        std::size_t startOffset = 0;
        std::size_t endOffset = 0;
    };
    std::deque<PendingWrite> writeQueue;

    // ---- deferred protocol error (pipelining keeps order) ----
    int pendingErrorStatus = 0;
    std::string pendingErrorMessage;

    // ---- clocks (ms, steady) ----
    std::uint64_t idleSinceMs = 0;
    std::uint64_t firstByteMs = 0;  //!< first byte of an incomplete request
    bool headDone = false;          //!< that request's head is complete
    std::uint64_t writeStartMs = 0;

    bool busy() const { return computing || writing; }
};

HttpServer::HttpServer(ServeOptions options, HttpHandler handler)
    : options_(options), handler_(std::move(handler))
{
    if (options_.workers > kMaxServeWorkers) {
        throw ConfigError("serve: " + std::to_string(options_.workers) +
                          " workers is above the cap of " +
                          std::to_string(kMaxServeWorkers));
    }
    if (options_.workers == 0)
        options_.workers = 1;
    if (options_.queueDepth == 0)
        options_.queueDepth = 1;
    if (options_.maxPipeline == 0)
        options_.maxPipeline = 1;
}

HttpServer::~HttpServer()
{
    stop();
}

void
HttpServer::start()
{
    if (running_.load())
        return;

    listenFd_ = socket(AF_INET,
                       SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
    if (listenFd_ < 0)
        throw ServeError(0, std::string("socket: ") +
                                std::strerror(errno));
    const int one = 1;
    setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(options_.port);
    if (bind(listenFd_, reinterpret_cast<struct sockaddr *>(&addr),
             sizeof(addr)) < 0) {
        const std::string what = std::string("bind port ") +
            std::to_string(options_.port) + ": " +
            std::strerror(errno);
        close(listenFd_);
        listenFd_ = -1;
        throw ServeError(0, what);
    }
    if (listen(listenFd_, 256) < 0) {
        const std::string what =
            std::string("listen: ") + std::strerror(errno);
        close(listenFd_);
        listenFd_ = -1;
        throw ServeError(0, what);
    }

    // Resolve the actual port (meaningful when options_.port == 0).
    socklen_t len = sizeof(addr);
    if (getsockname(listenFd_,
                    reinterpret_cast<struct sockaddr *>(&addr),
                    &len) == 0)
        boundPort_ = ntohs(addr.sin_port);

    epollFd_ = epoll_create1(EPOLL_CLOEXEC);
    wakeFd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (epollFd_ < 0 || wakeFd_ < 0) {
        const std::string what = std::string("epoll/eventfd: ") +
            std::strerror(errno);
        close(listenFd_);
        listenFd_ = -1;
        if (epollFd_ >= 0)
            close(epollFd_);
        epollFd_ = -1;
        if (wakeFd_ >= 0)
            close(wakeFd_);
        wakeFd_ = -1;
        throw ServeError(0, what);
    }
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = listenFd_;
    epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev);
    listenArmed_ = true;
    ev.data.fd = wakeFd_;
    epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev);

    stopping_.store(false);
    running_.store(true);
    reactorThread_ = std::thread(&HttpServer::reactorLoop, this);
    {
        std::lock_guard<std::mutex> lock(workersMutex_);
        workers_.reserve(options_.workers);
        // Worker ids are 1-based: trace track 0 is the reactor.
        for (unsigned i = 0; i < options_.workers; ++i)
            workers_.emplace_back(
                [this, id = i + 1] { workerLoop(id); });
    }
}

void
HttpServer::stop()
{
    if (!running_.load())
        return;
    stopping_.store(true);
    // Wake the reactor so it begins the drain immediately.
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(wakeFd_, &one, sizeof(one));
    if (reactorThread_.joinable())
        reactorThread_.join();
    // Workers drain the task queue, then observe stopping_ and exit.
    // Join in swap-batches: a dying worker may still be appending
    // its replacement to workers_, so keep draining until the vector
    // stays empty (respawns stop once stopping_ is observed).
    taskCv_.notify_all();
    for (;;) {
        std::vector<std::thread> batch;
        {
            std::lock_guard<std::mutex> lock(workersMutex_);
            batch.swap(workers_);
        }
        if (batch.empty())
            break;
        taskCv_.notify_all();
        for (std::thread &w : batch)
            if (w.joinable())
                w.join();
    }
    // The reactor closed every connection (and usually the listener)
    // during the drain; release whatever remains.
    for (std::unique_ptr<Conn> &conn : conns_)
        if (conn != nullptr)
            close(conn->fd);
    conns_.clear();
    if (listenFd_ >= 0) {
        close(listenFd_);
        listenFd_ = -1;
    }
    if (epollFd_ >= 0) {
        close(epollFd_);
        epollFd_ = -1;
    }
    if (wakeFd_ >= 0) {
        close(wakeFd_);
        wakeFd_ = -1;
    }
    {
        std::lock_guard<std::mutex> lock(taskMutex_);
        tasks_.clear();
    }
    {
        std::lock_guard<std::mutex> lock(completionMutex_);
        completions_.clear();
    }
    running_.store(false);
}

ServerStats
HttpServer::stats() const
{
    ServerStats out;
    out.accepted = stats_.accepted.load(std::memory_order_relaxed);
    out.rejected = stats_.rejected.load(std::memory_order_relaxed);
    out.requests = stats_.requests.load(std::memory_order_relaxed);
    out.pipelined = stats_.pipelined.load(std::memory_order_relaxed);
    out.fastpath = stats_.fastpath.load(std::memory_order_relaxed);
    out.queueDepth = stats_.queued.load(std::memory_order_relaxed);
    out.inFlight = stats_.inFlight.load(std::memory_order_relaxed);
    out.connections =
        stats_.connections.load(std::memory_order_relaxed);
    out.workerDeaths =
        stats_.workerDeaths.load(std::memory_order_relaxed);
    return out;
}

unsigned
HttpServer::retryAfterSeconds() const
{
    const std::uint64_t backlog =
        stats_.queued.load(std::memory_order_relaxed) +
        stats_.inFlight.load(std::memory_order_relaxed);
    const std::uint64_t seconds =
        1 + backlog / std::max(1u, options_.workers);
    return unsigned(std::min<std::uint64_t>(seconds, 60));
}

// --------------------------------------------------------- reactor

void
HttpServer::reactorLoop()
{
    bool draining = false;
    lastClockScanMs_ = monoNanos() / kNanosPerMilli;
    struct epoll_event events[64];

    for (;;) {
        if (stopping_.load() && !draining) {
            beginDrain();
            draining = true;
        }
        if (draining) {
            // Exit once every connection has flushed and closed.
            bool anyConn = false;
            for (const std::unique_ptr<Conn> &conn : conns_)
                if (conn != nullptr) {
                    anyConn = true;
                    break;
                }
            if (!anyConn)
                return;
        }

        const int ready =
            epoll_wait(epollFd_, events, 64, int(kClockScanMs));
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return;     // epoll fd gone: shutting down
        }
        for (int i = 0; i < ready; ++i) {
            const int fd = events[i].data.fd;
            if (fd == wakeFd_) {
                std::uint64_t drainCount = 0;
                while (read(wakeFd_, &drainCount,
                            sizeof(drainCount)) > 0) {
                }
                continue;   // completions applied below
            }
            if (fd == listenFd_) {
                acceptReady();
                continue;
            }
            Conn *conn = std::size_t(fd) < conns_.size()
                             ? conns_[std::size_t(fd)].get()
                             : nullptr;
            if (conn == nullptr)
                continue;   // closed earlier this same batch
            if (events[i].events & (EPOLLERR | EPOLLHUP)) {
                // Peer reset.  A half-closed peer that still reads
                // is EPOLLIN/recv==0, not HUP, so closing here is
                // safe.
                closeConn(*conn);
                continue;
            }
            if (events[i].events & EPOLLIN)
                connReadable(*conn);
            conn = std::size_t(fd) < conns_.size()
                       ? conns_[std::size_t(fd)].get()
                       : nullptr;
            if (conn != nullptr && (events[i].events & EPOLLOUT))
                connWritable(*conn);
        }

        applyCompletions();

        const std::uint64_t now = monoNanos() / kNanosPerMilli;
        if (now - lastClockScanMs_ >= kClockScanMs) {
            lastClockScanMs_ = now;
            scanClocks();
        }
    }
}

void
HttpServer::acceptReady()
{
    for (;;) {
        const int fd = accept4(listenFd_, nullptr, nullptr,
                               SOCK_CLOEXEC | SOCK_NONBLOCK);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            if (errno == EMFILE || errno == ENFILE) {
                // Out of fds: mute the listener briefly instead of
                // spinning on a level-triggered event we cannot
                // satisfy.  scanClocks() re-arms it.
                epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_,
                          nullptr);
                listenArmed_ = false;
            }
            return;     // EAGAIN and friends: drained the backlog
        }
        const int one = 1;
        setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

        if (std::size_t(fd) >= conns_.size())
            conns_.resize(std::size_t(fd) + 1);
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        conn->gen = nextGen_++;
        conn->events = EPOLLIN;
        conn->idleSinceMs = monoNanos() / kNanosPerMilli;
        struct epoll_event ev;
        std::memset(&ev, 0, sizeof(ev));
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev);
        conns_[std::size_t(fd)] = std::move(conn);
        stats_.accepted.fetch_add(1, std::memory_order_relaxed);
        stats_.connections.fetch_add(1, std::memory_order_relaxed);
    }
}

void
HttpServer::wantWrite(Conn &conn, bool enable)
{
    const std::uint32_t events =
        (conn.events & ~std::uint32_t(EPOLLOUT)) |
        (enable ? std::uint32_t(EPOLLOUT) : 0u);
    if (events == conn.events)
        return;
    conn.events = events;
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = events;
    ev.data.fd = conn.fd;
    epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void
HttpServer::connReadable(Conn &conn)
{
    // Backpressure: a client that pipelines past maxPipeline is not
    // read further until the backlog drains — its bytes stay in the
    // kernel buffer and TCP flow control pushes back.
    if (conn.parsed.size() >= options_.maxPipeline)
        return;

    char chunk[16384];
    for (;;) {
        std::size_t cap = sizeof(chunk);
        if (faultAt("http.read")) {
            if (faultMode("http.read") == "fail") {
                closeConn(conn);
                return;
            }
            cap = 1;    // "short" (and the default mode)
        }
        const ssize_t got = recv(conn.fd, chunk, cap, 0);
        if (got > 0) {
            if (conn.in.empty() && conn.inOff == 0 &&
                conn.firstByteMs == 0)
                conn.firstByteMs = monoNanos() / kNanosPerMilli;
            // One receive stamp per buffered stretch: every request
            // parsed out of these bytes anchors its span here.
            if (tracer_ != nullptr && conn.recvNs == 0)
                conn.recvNs = monoNanos();
            conn.in.append(chunk, std::size_t(got));
            if (conn.in.size() - conn.inOff >
                options_.maxBodyBytes + (32u << 10))
                break;  // one request can never need more; parse now
            continue;
        }
        if (got == 0) {
            conn.peerEof = true;
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        closeConn(conn);
        return;
    }

    const int fd = conn.fd;
    const std::uint64_t gen = conn.gen;
    parseAndDispatch(conn);     // may close (and free) the connection

    // EOF: whatever could be answered is in flight; anything less
    // than a full request can never complete now.
    Conn *live = liveConn(fd, gen);
    if (live != nullptr && live->peerEof && !live->busy() &&
        live->parsed.empty() && live->pendingErrorStatus == 0)
        closeConn(*live);
}

void
HttpServer::parseAndDispatch(Conn &conn)
{
    // Parse EVERY complete request already buffered (bounded by
    // maxPipeline) — this loop is the pipelining fast path: a batch
    // of N requests arriving in one TCP segment costs one read
    // syscall and N handler dispatches.
    std::uint64_t parseNs = 0;  //!< shared parse stamp (traced only)
    while (conn.parsed.size() < options_.maxPipeline &&
           conn.pendingErrorStatus == 0) {
        if (conn.inOff >= conn.in.size())
            break;
        HttpRequest request;
        std::size_t consumed = 0;
        std::string error;
        bool headDone = false;
        const ExtractStatus st = extractRequest(
            conn.in, conn.inOff, options_.maxBodyBytes, &request,
            &consumed, &error, &headDone);
        if (st == ExtractStatus::kOk) {
            conn.inOff += consumed;
            conn.firstByteMs = 0;
            conn.headDone = false;
            stats_.requests.fetch_add(1, std::memory_order_relaxed);
            const bool pipelined =
                conn.busy() || !conn.parsed.empty();
            if (pipelined)
                stats_.pipelined.fetch_add(
                    1, std::memory_order_relaxed);
            PendingReq pending;
            if (tracer_ != nullptr) {
                if (parseNs == 0)
                    parseNs = monoNanos();
                pending.span.ts[kStampRecv] =
                    conn.recvNs != 0 ? conn.recvNs : parseNs;
                pending.span.ts[kStampParsed] = parseNs;
                pending.span.fd = conn.fd;
                pending.span.gen = std::uint32_t(conn.gen);
                pending.span.setEndpoint(
                    endpointForPath(request.path));
                if (pipelined)
                    pending.span.flags |=
                        RequestSpan::kFlagPipelined;
            }
            pending.request = std::move(request);
            conn.parsed.push_back(std::move(pending));
            continue;
        }
        if (st == ExtractStatus::kNeedMore) {
            if (conn.firstByteMs == 0)
                conn.firstByteMs = monoNanos() / kNanosPerMilli;
            conn.headDone = headDone;
            break;
        }
        // Protocol failure: the stream is desynchronized beyond this
        // point.  Answer in order — queue the error response behind
        // any already-parsed requests — then close.
        if (st == ExtractStatus::kMalformed) {
            conn.pendingErrorStatus = 400;
            conn.pendingErrorMessage =
                error.empty() ? "malformed request" : error;
        } else {    // kTooLarge
            conn.pendingErrorStatus = 413;
            conn.pendingErrorMessage = "request body exceeds " +
                std::to_string(options_.maxBodyBytes) + " bytes";
        }
        conn.inOff = conn.in.size();    // stop reading this stream
        break;
    }

    // Compact: drop the consumed prefix without shifting bytes on
    // every request (amortized, keeps capacity for reuse).
    if (conn.inOff >= conn.in.size()) {
        conn.in.clear();
        conn.inOff = 0;
        conn.recvNs = 0;    // next byte starts a fresh receive stamp
    } else if (conn.inOff > (64u << 10)) {
        conn.in.erase(0, conn.inOff);
        conn.inOff = 0;
    }

    // Dispatch strictly serially per connection: responses come back
    // in request order by construction.  Fast-path and admission
    // answers cork into the write buffer and keep the loop going, so
    // a burst of ready answers costs ONE flush below; the loop stops
    // at the first request that needs a worker (compute serializes),
    // at a pending large body (write order: a big body is always the
    // last segment of a burst), or at a response that closes.
    while (!conn.computing && conn.body.empty() &&
           !conn.closeAfterWrite && !conn.parsed.empty()) {
        PendingReq pending = std::move(conn.parsed.front());
        conn.parsed.pop_front();
        dispatch(conn, std::move(pending));
    }
    if (!conn.computing && conn.body.empty() &&
        !conn.closeAfterWrite && conn.parsed.empty() &&
        conn.pendingErrorStatus != 0) {
        const int status = conn.pendingErrorStatus;
        conn.pendingErrorStatus = 0;
        conn.closeAfterWrite = true;
        beginResponse(
            conn, jsonErrorResponse(status, conn.pendingErrorMessage),
            false);
    }
    if (conn.writing) {
        // One gathered writev for the whole corked burst.  May close
        // the connection (write error, closeAfterWrite) — `conn` must
        // not be touched afterwards.
        flushWrites(conn);
        return;
    }
    if (!conn.busy() && conn.parsed.empty() &&
        conn.pendingErrorStatus == 0 && conn.in.empty())
        conn.idleSinceMs = monoNanos() / kNanosPerMilli;
}

void
HttpServer::dispatch(Conn &conn, PendingReq pending)
{
    HttpRequest &request = pending.request;
    conn.curKeepAlive = request.keepAlive();
    if (tracer_ != nullptr)
        pending.span.ts[kStampDispatch] = monoNanos();

    // Per-request deadline: the default, lowered (never raised) by
    // an X-Deadline-Ms header.
    unsigned budgetMs = options_.deadlineMs;
    const std::optional<std::uint64_t> deadline =
        parseDecimal(request.header("x-deadline-ms"));
    if (deadline && *deadline < budgetMs)
        budgetMs = unsigned(*deadline);

    // Reactor fast path: no-compute answers (cache hits, liveness)
    // skip the worker pool entirely.  Tried before admission — a
    // compute backlog is no reason to turn away a request that never
    // needed a worker.  An expired deadline (budget 0) still goes to
    // a worker so the 503 has one owner.
    if (fastHandler_ && budgetMs > 0) {
        HttpResponse fast;
        if (tracer_ != nullptr) {
            spanAnnotations() = SpanAnnotations{};
            pending.span.ts[kStampStart] =
                pending.span.ts[kStampDispatch];
        }
        if (fastHandler_(request, &fast)) {
            stats_.fastpath.fetch_add(1, std::memory_order_relaxed);
            if (tracer_ != nullptr) {
                pending.span.ts[kStampDone] = monoNanos();
                pending.span.flags |= RequestSpan::kFlagFastpath;
                const SpanAnnotations &notes = spanAnnotations();
                if (notes.cacheHit)
                    pending.span.flags |= RequestSpan::kFlagCacheHit;
                if (notes.audited)
                    pending.span.flags |= RequestSpan::kFlagAudited;
                pending.span.cacheNs = notes.cacheNs;
                pending.span.worker = 0;
            }
            beginResponse(conn, fast, conn.curKeepAlive,
                          tracer_ != nullptr ? &pending.span
                                             : nullptr);
            return;
        }
    }

    // Admission control at the dispatch edge: a full compute queue
    // answers 429 from the reactor within one round trip, and the
    // connection survives to honor Retry-After.
    std::size_t backlog;
    {
        std::lock_guard<std::mutex> lock(taskMutex_);
        backlog = tasks_.size();
    }
    if (backlog >= options_.queueDepth) {
        stats_.rejected.fetch_add(1, std::memory_order_relaxed);
        HttpResponse busy =
            jsonErrorResponse(429, "server overloaded, retry");
        busy.headers["Retry-After"] =
            std::to_string(retryAfterSeconds());
        beginResponse(conn, std::move(busy), conn.curKeepAlive,
                      tracer_ != nullptr ? &pending.span : nullptr);
        return;
    }

    conn.computing = true;
    Task task;
    task.fd = conn.fd;
    task.gen = conn.gen;
    task.request = std::move(pending.request);
    task.span = pending.span;
    task.budgetMs = budgetMs;
    {
        std::lock_guard<std::mutex> lock(taskMutex_);
        tasks_.push_back(std::move(task));
    }
    stats_.queued.fetch_add(1, std::memory_order_relaxed);
    taskCv_.notify_one();
}

void
HttpServer::beginResponse(Conn &conn, const HttpResponse &response,
                          bool keepAlive, RequestSpan *span)
{
    // Cork, don't send: the response is serialized BEHIND any not-yet
    // flushed responses of the same pipelined burst, and the caller
    // flushes the whole burst in one gathered writev when no more
    // answers are ready.  Precondition: conn.body is empty — every
    // dispatch gate stops once a large body is pending, so a burst is
    // [small]*[large?] and write order always equals request order.
    const bool keep =
        keepAlive && !conn.closeAfterWrite && !stopping_.load();
    if (!keep)
        conn.closeAfterWrite = true;
    if (!conn.writing) {
        conn.head.clear();
        conn.headSent = 0;
        conn.writing = true;
        conn.writeStartMs = monoNanos() / kNanosPerMilli;
    }
    // Burst offsets for write attribution: a span's response spans
    // [startOffset, endOffset) of the burst's byte stream (head +
    // corked inline bodies; a large body is always last in a burst).
    const std::size_t startOffset = conn.head.size() + conn.body.size();
    response.serializeHead(keep, &conn.head);
    // The body is moved, not copied: beginResponse's const ref binds
    // to a response the reactor owns, so stealing is safe.
    std::string &body = const_cast<HttpResponse &>(response).body;
    if (body.size() <= kInlineBodyBytes) {
        conn.head += body;
    } else {
        conn.body = std::move(body);
        conn.bodySent = 0;
    }
    if (span != nullptr) {
        span->status = std::uint16_t(response.status);
        span->ts[kStampSerialized] = monoNanos();
        conn.writeQueue.push_back(Conn::PendingWrite{
            *span, startOffset,
            conn.head.size() + conn.body.size() });
    }
}

void
HttpServer::flushWrites(Conn &conn)
{
    while (conn.writing) {
        struct iovec iov[2];
        int iovCount = 0;
        std::size_t headLeft = conn.head.size() - conn.headSent;
        std::size_t bodyLeft = conn.body.size() - conn.bodySent;
        if (headLeft > 0) {
            iov[iovCount].iov_base = &conn.head[conn.headSent];
            iov[iovCount].iov_len = headLeft;
            ++iovCount;
        }
        if (bodyLeft > 0) {
            iov[iovCount].iov_base = &conn.body[conn.bodySent];
            iov[iovCount].iov_len = bodyLeft;
            ++iovCount;
        }
        if (iovCount == 0) {
            // Burst fully written: the connection goes back to
            // reading (or closes).  clear() keeps the buffers'
            // capacity for the next burst.
            conn.writing = false;
            conn.head.clear();
            conn.headSent = 0;
            conn.body.clear();
            conn.bodySent = 0;
            wantWrite(conn, false);
            if (conn.closeAfterWrite) {
                closeConn(conn);
                return;
            }
            // Pipelined successor requests may already be parsed —
            // keep the connection moving without another epoll trip.
            const int fd = conn.fd;
            const std::uint64_t gen = conn.gen;
            parseAndDispatch(conn);     // may close (and free) `conn`
            Conn *live = liveConn(fd, gen);
            if (live != nullptr && live->peerEof && !live->busy() &&
                live->parsed.empty() &&
                live->pendingErrorStatus == 0)
                closeConn(*live);
            return;
        }

        if (faultAt("http.write")) {
            if (faultMode("http.write") == "fail") {
                closeConn(conn);
                return;
            }
            // "short": deliver one byte per writev, exercising every
            // partial-write resumption path.
            iov[0].iov_len = 1;
            iovCount = 1;
        }
        const ssize_t n = writev(conn.fd, iov, iovCount);
        if (n >= 0) {
            std::size_t advanced = std::size_t(n);
            const std::size_t headTake =
                std::min(advanced, headLeft);
            conn.headSent += headTake;
            advanced -= headTake;
            conn.bodySent += advanced;
            if (tracer_ != nullptr && !conn.writeQueue.empty())
                noteWriteProgress(conn);
            continue;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
            // Peer not draining: park the write on EPOLLOUT under
            // the write-budget clock instead of blocking anything.
            wantWrite(conn, true);
            return;
        }
        closeConn(conn);    // EPIPE/ECONNRESET and friends
        return;
    }
}

void
HttpServer::noteWriteProgress(Conn &conn)
{
    // Attribute the bytes just written to the burst's pending spans:
    // `sent` is the cumulative burst position, each span owns
    // [startOffset, endOffset) of it.  One clock read covers every
    // span this writev touched.
    const std::uint64_t now = monoNanos();
    const std::size_t sent = conn.headSent + conn.bodySent;
    while (!conn.writeQueue.empty()) {
        Conn::PendingWrite &front = conn.writeQueue.front();
        if (front.span.ts[kStampFirstWrite] == 0 &&
            front.startOffset < sent)
            front.span.ts[kStampFirstWrite] = now;
        if (front.endOffset > sent)
            break;
        front.span.ts[kStampLastWrite] = now;
        publishSpan(front.span);
        conn.writeQueue.pop_front();
    }
}

void
HttpServer::publishSpan(RequestSpan &span)
{
    if (tracer_->publish(span))
        std::fprintf(stderr, "%s\n", formatSlowLine(span).c_str());
}

void
HttpServer::connWritable(Conn &conn)
{
    if (conn.writing)
        flushWrites(conn);
    else
        wantWrite(conn, false);
}

void
HttpServer::applyCompletions()
{
    std::vector<Completion> batch;
    {
        std::lock_guard<std::mutex> lock(completionMutex_);
        batch.swap(completions_);
    }
    for (Completion &done : batch) {
        Conn *conn = std::size_t(done.fd) < conns_.size()
                         ? conns_[std::size_t(done.fd)].get()
                         : nullptr;
        if (conn == nullptr || conn->gen != done.gen)
            continue;   // connection died while computing
        conn->computing = false;
        if (done.killConn) {
            closeConn(*conn);
            continue;
        }
        beginResponse(*conn, done.response, conn->curKeepAlive,
                      tracer_ != nullptr ? &done.span : nullptr);
        // Pipelined successors may be ready (and may answer inline);
        // parseAndDispatch corks them behind this response and
        // flushes the burst.  May close the connection.
        parseAndDispatch(*conn);
    }
}

void
HttpServer::scanClocks()
{
    const std::uint64_t now = monoNanos() / kNanosPerMilli;

    if (!listenArmed_ && listenFd_ >= 0 && !stopping_.load()) {
        struct epoll_event ev;
        std::memset(&ev, 0, sizeof(ev));
        ev.events = EPOLLIN;
        ev.data.fd = listenFd_;
        if (epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev) == 0)
            listenArmed_ = true;
    }

    for (std::size_t i = 0; i < conns_.size(); ++i) {
        Conn *conn = conns_[i].get();
        if (conn == nullptr)
            continue;
        if (conn->writing) {
            if (options_.writeTimeoutMs != 0 &&
                now - conn->writeStartMs >= options_.writeTimeoutMs)
                closeConn(*conn);   // slow reader: budget exhausted
            continue;
        }
        if (conn->computing)
            continue;   // the worker owns this request's clock
        if (conn->firstByteMs != 0) {
            // Mid-request: the header clock (anti-slowloris) binds
            // until the head terminates, then the request budget
            // bounds the body read.
            std::uint64_t budget = options_.deadlineMs;
            if (!conn->headDone && options_.headerTimeoutMs != 0)
                budget = std::min<std::uint64_t>(
                    budget, options_.headerTimeoutMs);
            if (now - conn->firstByteMs >= budget) {
                conn->closeAfterWrite = true;
                beginResponse(
                    *conn,
                    jsonErrorResponse(408, "request read timed out"),
                    false);
                flushWrites(*conn);     // may close the connection
            }
            continue;
        }
        if (!conn->parsed.empty() || conn->pendingErrorStatus != 0)
            continue;   // waiting on its turn, not idle
        if (now - conn->idleSinceMs >= options_.idleTimeoutMs)
            closeConn(*conn);   // parked keep-alive: quiet goodbye
    }
}

void
HttpServer::beginDrain()
{
    // Stop accepting.
    if (listenFd_ >= 0) {
        if (listenArmed_)
            epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
        listenArmed_ = false;
        close(listenFd_);
        listenFd_ = -1;
    }
    // Finish what is in flight, drop what is merely parked: an idle
    // keep-alive connection or an undispatched pipelined request was
    // never acknowledged, so closing is honest.
    for (std::size_t i = 0; i < conns_.size(); ++i) {
        Conn *conn = conns_[i].get();
        if (conn == nullptr)
            continue;
        conn->parsed.clear();
        conn->pendingErrorStatus = 0;
        if (conn->busy())
            conn->closeAfterWrite = true;
        else
            closeConn(*conn);
    }
}

void
HttpServer::closeConn(Conn &conn)
{
    const int fd = conn.fd;
    epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
    close(fd);
    stats_.connections.fetch_sub(1, std::memory_order_relaxed);
    if (tracer_ != nullptr && !conn.writeQueue.empty()) {
        // Responses that never fully reached the socket still get a
        // span — flagged aborted so the flight recorder shows where
        // the connection died.
        for (Conn::PendingWrite &pending : conn.writeQueue) {
            pending.span.flags |= RequestSpan::kFlagAborted;
            publishSpan(pending.span);
        }
        conn.writeQueue.clear();
    }
    conns_[std::size_t(fd)].reset();    // `conn` is dead past here
}

HttpServer::Conn *
HttpServer::liveConn(int fd, std::uint64_t gen)
{
    if (fd < 0 || std::size_t(fd) >= conns_.size())
        return nullptr;
    Conn *conn = conns_[std::size_t(fd)].get();
    if (conn == nullptr || conn->gen != gen)
        return nullptr;
    return conn;
}

// --------------------------------------------------------- workers

void
HttpServer::workerLoop(unsigned workerId)
{
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(taskMutex_);
            taskCv_.wait(lock, [&] {
                return stopping_.load() || !tasks_.empty();
            });
            if (tasks_.empty()) {
                if (stopping_.load())
                    return;
                continue;
            }
            task = std::move(tasks_.front());
            tasks_.pop_front();
        }
        stats_.queued.fetch_sub(1, std::memory_order_relaxed);
        stats_.inFlight.fetch_add(1, std::memory_order_relaxed);

        if (tracer_ != nullptr) {
            task.span.worker = std::uint8_t(workerId);
            task.span.ts[kStampStart] = monoNanos();
            spanAnnotations() = SpanAnnotations{};
        }

        Completion done;
        done.fd = task.fd;
        done.gen = task.gen;
        try {
            if (faultAt("worker.die"))
                throw WorkerDeathFault{};
            if (faultAt("worker.overrun")) {
                // Injected deadline overrun: burn (a capped slice
                // of) the budget, then answer as an expired request
                // would.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(
                        std::min(task.budgetMs, 200u)));
                done.response = jsonErrorResponse(
                    503, "deadline exceeded (injected overrun)");
            } else if (task.budgetMs == 0) {
                done.response = jsonErrorResponse(
                    503, "deadline expired before processing");
            } else {
                try {
                    done.response =
                        handler_(task.request, task.budgetMs);
                } catch (const ServeError &e) {
                    done.response = jsonErrorResponse(
                        e.httpStatus() > 0 ? e.httpStatus() : 500,
                        e.what());
                } catch (const std::exception &e) {
                    done.response = jsonErrorResponse(500, e.what());
                }
            }
        } catch (const WorkerDeathFault &) {
            // Injected worker death: drop the connection, count it,
            // and spawn a replacement so the pool self-heals at its
            // configured size.  This thread then exits; stop() joins
            // its (finished) handle from the workers_ vector.
            stats_.inFlight.fetch_sub(1, std::memory_order_relaxed);
            stats_.workerDeaths.fetch_add(1,
                                          std::memory_order_relaxed);
            done.killConn = true;
            {
                std::lock_guard<std::mutex> lock(completionMutex_);
                completions_.push_back(std::move(done));
            }
            const std::uint64_t one = 1;
            [[maybe_unused]] ssize_t n =
                write(wakeFd_, &one, sizeof(one));
            {
                std::lock_guard<std::mutex> lock(workersMutex_);
                if (!stopping_.load())
                    workers_.emplace_back([this, workerId] {
                        workerLoop(workerId);
                    });
            }
            return;
        }
        if (tracer_ != nullptr) {
            task.span.ts[kStampDone] = monoNanos();
            const SpanAnnotations &notes = spanAnnotations();
            if (notes.cacheHit)
                task.span.flags |= RequestSpan::kFlagCacheHit;
            if (notes.audited)
                task.span.flags |= RequestSpan::kFlagAudited;
            task.span.cacheNs = notes.cacheNs;
            done.span = task.span;
        }
        stats_.inFlight.fetch_sub(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(completionMutex_);
            completions_.push_back(std::move(done));
        }
        const std::uint64_t one = 1;
        [[maybe_unused]] ssize_t n =
            write(wakeFd_, &one, sizeof(one));
    }
}

} // namespace mfusim
