/**
 * @file
 * The mfusim request handler behind `mfusim serve`.
 *
 * SimService owns the HTTP surface of the daemon:
 *
 *   POST /v1/simulate   time one (loop, machine, config) cell
 *   POST /v1/sweep      fan a loop list over the sweep worker pool
 *   GET  /healthz       liveness + build version + uptime
 *   GET  /metrics       Prometheus text exposition
 *   GET  /v1/trace      flight recorder as Perfetto trace JSON
 *
 * Both POST endpoints take and return JSON (response schema
 * "mfusim-serve-v1"); responses are bit-identical to the equivalent
 * CLI invocation because both sit on the same spec parsers, trace
 * library, simulators and ResultCache.  All input errors surface as
 * ServeError(400) and render as {"error": ..., "status": 400}.
 *
 * The service is handler-only — it plugs into the transport-level
 * HttpServer (server.hh) and can read its admission-control stats
 * for the /metrics scrape via setServer().
 */

#ifndef MFUSIM_SERVE_SIM_SERVICE_HH
#define MFUSIM_SERVE_SIM_SERVICE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "mfusim/core/machine_config.hh"
#include "mfusim/obs/metrics.hh"
#include "mfusim/serve/server.hh"

namespace mfusim
{

class RequestTracer;

/** Service-level (not transport-level) knobs. */
struct SimServiceOptions
{
    /** Build identity reported by /healthz and /metrics. */
    std::string version = "unknown";
    /** Git revision baked into the binary (build_info, /healthz). */
    std::string gitSha = "unknown";
    /** CMake build type baked into the binary (build_info). */
    std::string buildType = "unknown";
    /**
     * Request tracer shared with the HttpServer (may be null).  The
     * service only reads from it: /v1/trace exports the flight
     * recorder, /metrics merges the phase histograms.
     */
    RequestTracer *tracer = nullptr;
};

class SimService
{
  public:
    explicit SimService(SimServiceOptions options = {});

    /**
     * The HttpHandler entry point: route, execute, count.  Thread
     * safe; runs on HttpServer worker threads.
     */
    HttpResponse handle(const HttpRequest &request, unsigned budgetMs);

    /**
     * The HttpFastHandler entry point: answer @p request inline when
     * it needs no compute — GET/HEAD /healthz, and POST /v1/simulate
     * requests whose cell is already in the ResultCache.  Returns
     * false (leaving @p response untouched) for everything else; the
     * worker-pool handle() path then produces the canonical answer,
     * including all error responses.
     *
     * Answers are bit-identical to the handle() path: the rendered
     * response of a cache hit is a pure function of the request body
     * and the (deterministic) cached SimResult, so it is memoized
     * per distinct body alongside the parsed request fields.
     *
     * Runs ONLY on the reactor thread (the memo is unsynchronized by
     * design); disabled while fault injection is armed so fault plans
     * keep their worker-path semantics.
     *
     * The memo admits at most kMaxFastCells distinct bodies, for the
     * life of the process.  Past that a new body always takes the
     * worker path, hit or miss, and counts one refusal: /metrics
     * exports the memo's size (http_fastpath_memo_cells) and the
     * refusals (http_fastpath_memo_refused_total).
     */
    bool tryFastAnswer(const HttpRequest &request,
                       HttpResponse *response);

    /** Distinct /v1/simulate bodies the fast-path memo admits. */
    static constexpr std::size_t kMaxFastCells = 4096;

    /**
     * Attach the transport so /metrics can export its accepted /
     * rejected / queue-depth stats.  Call before start(); may be
     * null (stats are simply absent).
     */
    void setServer(const HttpServer *server) { server_ = server; }

  private:
    HttpResponse dispatch(const HttpRequest &request,
                          unsigned budgetMs);
    HttpResponse handleSimulate(const std::string &body);
    HttpResponse handleSweep(const std::string &body);
    HttpResponse handleHealthz() const;
    HttpResponse handleMetrics();
    HttpResponse handleTrace(const std::string &target) const;

    /**
     * Count one finished request, begun at monoNanos() @p startNs,
     * into the service registry.
     */
    void record(const std::string &path, int status,
                std::uint64_t startNs);

    /**
     * Parsed-request memo for the reactor fast path, keyed by the
     * raw /v1/simulate body.  Saturation traffic repeats a handful
     * of distinct bodies, so the JSON + spec parsing (and, once the
     * first hit renders it, the full response body) is paid once per
     * distinct request instead of once per request.  `usable` is
     * false for bodies the fast path must always decline (parse
     * errors, uncacheable machines) — a negative entry stops the
     * reactor from re-parsing a hopeless body every time.
     */
    struct FastCell
    {
        bool usable = false;
        std::string traceKey;   //!< "LL" + canonical loop name
        std::string machineSpec;
        std::string machineKey;
        std::string simName;
        MachineConfig cfg;
        bool audited = false;
        std::string rendered;   //!< full response body, once a hit rendered it
    };

    /** Memo lookup/fill; nullptr means "decline the fast path". */
    FastCell *findFastCell(const std::string &body);

    SimServiceOptions options_;
    const HttpServer *server_ = nullptr;

    /** Reactor-thread-only (see tryFastAnswer); no lock. */
    std::unordered_map<std::string, FastCell> fastCells_;
    /** The memo's size and refusals, for /metrics on the workers. */
    std::atomic<std::size_t> fastCellCount_{ 0 };
    std::atomic<std::uint64_t> fastCellRefusals_{ 0 };

    mutable std::mutex metricsMutex_;
    MetricsRegistry http_;
};

} // namespace mfusim

#endif // MFUSIM_SERVE_SIM_SERVICE_HH
