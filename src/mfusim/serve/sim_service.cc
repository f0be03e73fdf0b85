/**
 * @file
 * SimService: the mfusim JSON API on top of HttpServer.
 */

#include "mfusim/serve/sim_service.hh"

#include <cstdio>
#include <sstream>

#include "mfusim/codegen/livermore.hh"
#include "mfusim/core/clock.hh"
#include "mfusim/core/error.hh"
#include "mfusim/core/faultpoint.hh"
#include "mfusim/core/lexical.hh"
#include "mfusim/core/stats.hh"
#include "mfusim/obs/req_trace.hh"
#include "mfusim/harness/spec_parse.hh"
#include "mfusim/harness/sweep.hh"
#include "mfusim/serve/json.hh"
#include "mfusim/serve/result_cache.hh"
#include "mfusim/sim/audit.hh"
#include "mfusim/sim/batched.hh"
#include "mfusim/spec/predictor.hh"

namespace mfusim
{

namespace
{

/** Upper bounds on one /v1/sweep request (400 beyond them). */
constexpr std::size_t kMaxSweepLoops = 256;
constexpr std::size_t kMaxSweepMachines = 64;

/** "%.4f" — the CLI's table precision, replicated for diffability. */
std::string
rateString(double rate)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", rate);
    return buf;
}

/**
 * The "loop" request field: a spec string, or a JSON number read
 * through its decimal spelling (5 is "5"; 5.5 and -5 are bad loops).
 */
LoopSpec
loopSpecOf(const Json &value)
{
    if (value.isString())
        return parseLoopSpec(value.asString());
    if (value.isNumber())
        return parseLoopSpec(value.dump());
    throw ServeError(400, "'loop' must be a number or string");
}

const Json &
requireMember(const Json &body, const std::string &key)
{
    const Json *value = body.find(key);
    if (value == nullptr || value->isNull())
        throw ServeError(400, "missing required field '" + key + "'");
    return *value;
}

/**
 * The machine config a request names: the optional "config" field
 * (default M11BR5) with the optional "predictor" spec string (see
 * PredictorSpec::parse) armed on it.  The predictor is part of the
 * cache key, so speculative and non-speculative requests never
 * alias.  Parse errors surface as ConfigError -> 400.
 */
MachineConfig
requestConfig(const Json &body)
{
    const Json *cfgField = body.find("config");
    MachineConfig cfg = parseConfigSpec(
        cfgField != nullptr ? cfgField->asString() : "M11BR5");
    const Json *field = body.find("predictor");
    if (field == nullptr || field->isNull())
        return cfg;
    if (!field->isString())
        throw ServeError(400, "'predictor' must be a spec string "
                              "like \"2bit\" or \"fixed:90\"");
    cfg.predictor = PredictorSpec::parse(field->asString());
    cfg.predictor.validate();
    return cfg;
}

/** The fields of one /v1/simulate request body. */
struct SimulateRequest
{
    LoopSpec loop;
    std::string machineSpec;
    MachineConfig cfg;
    bool audit = false;     //!< the body's own "audit" field
};

/** Parse a /v1/simulate body; errors throw (ServeError/ConfigError). */
SimulateRequest
parseSimulateRequest(const std::string &body)
{
    const Json request = parseJson(body);
    if (!request.isObject())
        throw ServeError(400, "request body must be a JSON object");
    SimulateRequest out;
    out.loop = loopSpecOf(requireMember(request, "loop"));
    out.machineSpec = requireMember(request, "machine").asString();
    out.cfg = requestConfig(request);
    const Json *auditField = request.find("audit");
    out.audit = auditField != nullptr && auditField->asBool();
    return out;
}

/** The /v1/simulate response body of one cell. */
Json
cellJson(const std::string &traceKey, const std::string &machineSpec,
         const std::string &simName, const MachineConfig &cfg,
         const SimResult &result, bool cached, bool audited)
{
    Json out = Json::object();
    out.set("schema", Json("mfusim-serve-v1"));
    out.set("loop", Json(traceKey));
    out.set("machine", Json(simName));
    out.set("machine_spec", Json(machineSpec));
    out.set("config", Json(cfg.name()));
    out.set("instructions", Json(std::uint64_t(result.instructions)));
    out.set("cycles", Json(std::uint64_t(result.cycles)));
    out.set("rate", Json(result.issueRate()));
    out.set("rate_str", Json(rateString(result.issueRate())));
    out.set("cached", Json(cached));
    out.set("audited", Json(audited));
    out.set("steady_ops_skipped",
            Json(std::uint64_t(result.steadyOpsSkipped)));
    if (cfg.predictor.armed()) {
        out.set("predictor", Json(cfg.predictor.key()));
        out.set("squashes", Json(std::uint64_t(result.squashes)));
        out.set("wrong_path_ops",
                Json(std::uint64_t(result.wrongPathOps)));
    }
    return out;
}

} // namespace

SimService::SimService(SimServiceOptions options)
    : options_(std::move(options))
{}

HttpResponse
SimService::handle(const HttpRequest &request, unsigned budgetMs)
{
    const std::uint64_t start = monoNanos();
    HttpResponse response;
    try {
        response = dispatch(request, budgetMs);
    } catch (const ServeError &e) {
        response = jsonErrorResponse(
            e.httpStatus() > 0 ? e.httpStatus() : 500, e.what());
    } catch (const ConfigError &e) {
        // Spec parsers throw ConfigError; in a daemon that is client
        // input, not an operator mistake.
        response = jsonErrorResponse(400, e.what());
    } catch (const Error &e) {
        response = jsonErrorResponse(500, e.what());
    }
    record(request.path, response.status, start);
    return response;
}

SimService::FastCell *
SimService::findFastCell(const std::string &body)
{
    // Bound the memo: distinct bodies in real traffic are the points
    // of a parameter grid, far below kMaxFastCells.  A scanner
    // spraying unique bodies just stops being memoized (and keeps
    // paying the worker path), it cannot grow the map without limit.
    const auto it = fastCells_.find(body);
    if (it != fastCells_.end())
        return it->second.usable ? &it->second : nullptr;
    if (fastCells_.size() >= kMaxFastCells) {
        fastCellRefusals_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }

    FastCell cell;
    try {
        SimulateRequest request = parseSimulateRequest(body);
        cell.traceKey = "LL" + request.loop.name;
        cell.machineSpec = std::move(request.machineSpec);
        cell.cfg = std::move(request.cfg);
        cell.audited = request.audit || auditRequested();
        auto sim = parseMachineSpec(cell.machineSpec, cell.cfg);
        cell.simName = sim->name();
        cell.machineKey = sim->cacheKey();
        // An empty cacheKey means the cell is never cached, so the
        // fast path can never serve it.
        cell.usable = !cell.machineKey.empty();
    } catch (...) {
        // Unparseable body / bad spec: a negative entry — the worker
        // path owns the canonical error response.
        cell = FastCell{};
    }
    FastCell &stored = fastCells_.emplace(body, std::move(cell))
                           .first->second;
    fastCellCount_.store(fastCells_.size(), std::memory_order_relaxed);
    return stored.usable ? &stored : nullptr;
}

bool
SimService::tryFastAnswer(const HttpRequest &request,
                          HttpResponse *response)
{
    // Fault plans (tests, chaos harness) reason about worker-path
    // behavior; keep every request on it while faults are armed.
    if (FaultRegistry::instance().armed())
        return false;
    const std::uint64_t start = monoNanos();
    if (request.path == "/healthz") {
        if (request.method != "GET" && request.method != "HEAD")
            return false;
        *response = handleHealthz();
        record("/healthz", response->status, start);
        return true;
    }
    if (request.path != "/v1/simulate" || request.method != "POST")
        return false;

    FastCell *cell = findFastCell(request.body);
    if (cell == nullptr)
        return false;
    // Once the response is memoized the probe only needs the hit
    // itself (still counted), not a copy of the result.
    SimResult result;
    const bool needResult = cell->rendered.empty();
    const bool traced = reqTraceArmed();
    const std::uint64_t probeStart = traced ? monoNanos() : 0;
    if (!ResultCache::instance().probe(
            cell->machineKey, cell->traceKey, cell->cfg,
            cell->audited, needResult ? &result : nullptr))
        return false;   // miss: a worker computes (and counts) it
    if (traced) {
        SpanAnnotations &notes = spanAnnotations();
        notes.cacheHit = true;
        notes.audited = cell->audited;
        notes.cacheNs = monoNanos() - probeStart;
    }
    if (needResult) {
        // First hit for this body: render once, reuse forever.  The
        // cached SimResult is deterministic, so the rendering is too.
        cell->rendered = cellJson(cell->traceKey, cell->machineSpec,
                                  cell->simName, cell->cfg, result,
                                  true, cell->audited)
                             .dump() +
            "\n";
    }
    *response =
        HttpResponse(200, "application/json", cell->rendered);
    record("/v1/simulate", 200, start);
    return true;
}

HttpResponse
SimService::dispatch(const HttpRequest &request, unsigned budgetMs)
{
    (void)budgetMs;     // expiry is enforced by the transport
    const std::string &path = request.path;
    if (path == "/healthz") {
        if (request.method != "GET" && request.method != "HEAD")
            throw ServeError(405, "use GET " + path);
        return handleHealthz();
    }
    if (path == "/metrics") {
        if (request.method != "GET")
            throw ServeError(405, "use GET " + path);
        return handleMetrics();
    }
    if (path == "/v1/simulate") {
        if (request.method != "POST")
            throw ServeError(405, "use POST " + path);
        return handleSimulate(request.body);
    }
    if (path == "/v1/sweep") {
        if (request.method != "POST")
            throw ServeError(405, "use POST " + path);
        return handleSweep(request.body);
    }
    if (path == "/v1/trace") {
        if (request.method != "GET")
            throw ServeError(405, "use GET " + path);
        return handleTrace(request.target);
    }
    throw ServeError(404, "no route for '" + path + "'");
}

HttpResponse
SimService::handleSimulate(const std::string &body)
{
    const SimulateRequest req = parseSimulateRequest(body);
    std::vector<std::unique_ptr<Simulator>> sims;
    sims.push_back(parseMachineSpec(req.machineSpec, req.cfg));
    const bool audited = req.audit || auditRequested();
    const bool traced = reqTraceArmed();
    const std::uint64_t before = traced ? monoNanos() : 0;
    const CachedCellResult cell =
        runCachedCell(sims, req.loop, req.cfg, audited).front();
    if (traced) {
        SpanAnnotations &notes = spanAnnotations();
        // A hit is only the probe; a miss is dominated by the
        // simulation, so only a hit's time is the cache's.
        if (cell.cached)
            notes.cacheNs = monoNanos() - before;
        notes.cacheHit = notes.cacheHit || cell.cached;
        notes.audited = notes.audited || audited;
    }
    const Json out =
        cellJson("LL" + req.loop.name, req.machineSpec, sims[0]->name(),
                 req.cfg, cell.result, cell.cached, audited);
    return HttpResponse(200, "application/json", out.dump() + "\n");
}

HttpResponse
SimService::handleSweep(const std::string &body)
{
    const Json request = parseJson(body);
    if (!request.isObject())
        throw ServeError(400, "request body must be a JSON object");

    // 'machine' is one spec string or a list of them: every listed
    // variant sweeps the same loops and config in one request, and
    // the variants run over each loop's trace in one batch
    // (sim/batched.hh).
    const Json &machineField = requireMember(request, "machine");
    std::vector<std::string> machineSpecs;
    if (machineField.isString()) {
        machineSpecs.push_back(machineField.asString());
    } else if (machineField.isArray()) {
        for (const Json &item : machineField.items())
            machineSpecs.push_back(item.asString());
    } else {
        throw ServeError(400, "'machine' must be a spec string or "
                              "an array of spec strings");
    }
    if (machineSpecs.empty())
        throw ServeError(400, "'machine' must not be empty");
    if (machineSpecs.size() > kMaxSweepMachines)
        throw ServeError(400,
                         "sweep of " +
                             std::to_string(machineSpecs.size()) +
                             " machines exceeds the cap of " +
                             std::to_string(kMaxSweepMachines));
    const MachineConfig cfg = requestConfig(request);

    // Validate every machine spec once, up front, so a bad spec is a
    // clean 400 instead of a SweepError from every cell.
    std::vector<std::string> simNames;
    for (const std::string &spec : machineSpecs)
        simNames.push_back(parseMachineSpec(spec, cfg)->name());

    std::vector<int> loops;
    const Json *loopsField = request.find("loops");
    if (loopsField == nullptr || loopsField->isNull()) {
        for (const KernelSpec &spec : kernelSpecs())
            loops.push_back(spec.id);
    } else {
        for (const Json &item : loopsField->items()) {
            const LoopSpec loop = loopSpecOf(item);
            if (!loop.isLibrary())
                throw ServeError(400, "'loops' entries must be "
                                      "library loop ids (1..14)");
            loops.push_back(loop.id);
        }
    }
    if (loops.empty())
        throw ServeError(400, "'loops' must not be empty");
    if (loops.size() > kMaxSweepLoops)
        throw ServeError(400, "sweep of " +
                                  std::to_string(loops.size()) +
                                  " loops exceeds the cap of " +
                                  std::to_string(kMaxSweepLoops));

    // Optional 'jobs' caps the intra-sweep parallelism; 0/absent
    // means the process default.  Bounded so one request cannot
    // oversubscribe the worker pool's host arbitrarily.
    unsigned jobs = 0;
    if (const Json *jobsField = request.find("jobs");
        jobsField != nullptr && !jobsField->isNull()) {
        const std::optional<unsigned> parsed =
            parseDecimal<unsigned>(jobsField->dump(), 256);
        if (!parsed)
            throw ServeError(400, "'jobs' must be an integer in [0, 256]");
        jobs = *parsed;
    }

    std::vector<SimFactory> variants;
    for (const std::string &spec : machineSpecs) {
        variants.push_back([spec](const MachineConfig &c) {
            return parseMachineSpec(spec, c);
        });
    }
    // One batch per loop cell: every cache-missing variant runs over
    // the loop's trace and each computed cell is stored back, so
    // this call populates every covered ResultCache entry at once.
    const std::vector<std::vector<double>> rates =
        batchedPerLoopRates(variants, loops, cfg, jobs);

    const auto fillMachine = [&](std::size_t v, Json &dst) {
        Json results = Json::array();
        std::vector<double> scalarRates, vectorRates;
        for (std::size_t i = 0; i < loops.size(); ++i) {
            const bool vectorizable =
                kernelSpecs()[std::size_t(loops[i] - 1)].vectorizable;
            (vectorizable ? vectorRates : scalarRates)
                .push_back(rates[v][i]);
            Json row = Json::object();
            row.set("loop",
                    Json("LL" + std::to_string(loops[i])));
            row.set("class",
                    Json(vectorizable ? "vector" : "scalar"));
            row.set("rate", Json(rates[v][i]));
            row.set("rate_str", Json(rateString(rates[v][i])));
            results.push(std::move(row));
        }
        dst.set("machine", Json(simNames[v]));
        dst.set("machine_spec", Json(machineSpecs[v]));
        dst.set("results", std::move(results));
        if (!scalarRates.empty())
            dst.set("harmonic_mean_scalar",
                    Json(harmonicMean(scalarRates)));
        if (!vectorRates.empty())
            dst.set("harmonic_mean_vector",
                    Json(harmonicMean(vectorRates)));
    };

    Json out = Json::object();
    out.set("schema", Json("mfusim-serve-v1"));
    out.set("config", Json(cfg.name()));
    out.set("jobs", Json(std::uint64_t(
                        jobs != 0 ? jobs : defaultSweepJobs())));
    out.set("batch_size", Json(std::uint64_t(machineSpecs.size())));
    if (machineSpecs.size() == 1) {
        // Single-machine requests keep the v1 response shape.
        fillMachine(0, out);
    } else {
        Json machines = Json::array();
        for (std::size_t v = 0; v < machineSpecs.size(); ++v) {
            Json m = Json::object();
            fillMachine(v, m);
            machines.push(std::move(m));
        }
        out.set("machines", std::move(machines));
    }
    return HttpResponse(200, "application/json", out.dump() + "\n");
}

HttpResponse
SimService::handleHealthz() const
{
    Json out = Json::object();
    out.set("status", Json("ok"));
    out.set("version", Json(options_.version));
    out.set("git_sha", Json(options_.gitSha));
    out.set("uptime_seconds", Json(processUptimeSeconds()));
    return HttpResponse(200, "application/json", out.dump() + "\n");
}

HttpResponse
SimService::handleTrace(const std::string &target) const
{
    if (options_.tracer == nullptr)
        throw ServeError(503,
                         "request tracing is disabled "
                         "(--no-request-trace)");
    // The only recognized query parameter: ?last=N bounds the export
    // to the N most recently published spans (0 / absent = all
    // retained).  Anything unparseable is a client error.
    std::size_t lastN = 0;
    const std::size_t q = target.find('?');
    if (q != std::string::npos) {
        const std::string query = target.substr(q + 1);
        if (query.rfind("last=", 0) != 0)
            throw ServeError(400,
                             "unrecognized query (use ?last=N)");
        const std::optional<std::uint64_t> parsed =
            parseDecimal(std::string_view(query).substr(5));
        if (!parsed)
            throw ServeError(400, "'last' must be decimal digits");
        lastN = std::size_t(*parsed);
    }
    std::ostringstream os;
    options_.tracer->writeServeTrace(os, lastN);
    return HttpResponse(200, "application/json", os.str());
}

HttpResponse
SimService::handleMetrics()
{
    // The scrape snapshot: service counters + transport admission
    // stats + result-cache stats, all cumulative so Prometheus sees
    // monotone counters.
    MetricsRegistry snapshot;
    {
        std::lock_guard<std::mutex> lock(metricsMutex_);
        snapshot.merge(http_);
    }
    if (server_ != nullptr) {
        const ServerStats stats = server_->stats();
        snapshot.counter("http.connections.accepted")
            .add(stats.accepted);
        snapshot.counter("http.connections.rejected")
            .add(stats.rejected);
        snapshot.counter("http.connections.requests")
            .add(stats.requests);
        snapshot.counter("http.requests.pipelined")
            .add(stats.pipelined);
        snapshot.counter("http.requests.fastpath")
            .add(stats.fastpath);
        snapshot.gauge("http.connections.open")
            .set(double(stats.connections));
        snapshot.gauge("http.queue_depth")
            .set(double(stats.queueDepth));
        snapshot.gauge("http.in_flight").set(double(stats.inFlight));
        snapshot.counter("http.worker_deaths")
            .add(stats.workerDeaths);
    }
    snapshot.gauge("http.fastpath.memo_cells")
        .set(double(fastCellCount_.load(std::memory_order_relaxed)));
    snapshot.counter("http.fastpath.memo_refused")
        .add(fastCellRefusals_.load(std::memory_order_relaxed));
    // Fault-injection telemetry: visible only while faults are armed
    // (a production scrape carries zero extra series).
    if (FaultRegistry::instance().armed()) {
        snapshot.gauge("faults.armed").set(1.0);
        for (const FaultPointStats &pointStats :
             FaultRegistry::instance().stats()) {
            std::string name = pointStats.point;
            for (char &c : name)
                if (c == '.')
                    c = '_';
            snapshot.counter("faults." + name + ".fires")
                .add(pointStats.fires);
        }
    }
    ResultCache::instance().appendMetrics(snapshot);
    // Batched sweep telemetry (sim/batched.hh): batch_size is the
    // cumulative lane count submitted to runBatch().
    const BatchTelemetry batch = batchTelemetry();
    snapshot.counter("sweep.batches").add(batch.batches);
    snapshot.counter("sweep.batch_size").add(batch.lanes);
    // Speculation telemetry (spec/predictor.hh): registered
    // unconditionally so the families exist (at zero) before any
    // speculative run.
    const SpecTelemetry specT = specTelemetry();
    snapshot.counter("sim.squashes").add(specT.squashes);
    snapshot.counter("sim.wrong_path_ops").add(specT.wrongPathOps);
    snapshot.counter("sim.stall.mispredict_cycles")
        .add(specT.mispredictCycles);
    if (options_.tracer != nullptr)
        options_.tracer->appendMetrics(snapshot);
    // Build identity as the standard info-gauge idiom: constant 1,
    // identity in the labels.
    snapshot
        .gauge("build_info{version=" + options_.version +
               ",git_sha=" + options_.gitSha +
               ",build_type=" + options_.buildType + "}")
        .set(1.0);
    snapshot.gauge("process.uptime_seconds")
        .set(processUptimeSeconds());
    snapshot.setLabel("version", options_.version);
    return HttpResponse(200, "text/plain; version=0.0.4",
                        renderPrometheus(snapshot));
}

void
SimService::record(const std::string &path, int status,
                   std::uint64_t startNs)
{
    const std::uint64_t elapsedMs =
        (monoNanos() - startNs) / kNanosPerMilli;
    std::lock_guard<std::mutex> lock(metricsMutex_);
    http_.counter("http.requests").increment();
    const std::string statusClass =
        status >= 500 ? "5xx" : status >= 400 ? "4xx" : "2xx";
    http_.counter("http.responses." + statusClass).increment();

    // Per-endpoint counter + latency histogram for the routed
    // endpoints (unknown paths aggregate under "other" so a path
    // scanner cannot inflate the registry without bound).
    const std::string name(endpointForPath(path));
    http_.counter("http." + name + ".requests").increment();
    // 2 ms buckets x 50 = 100 ms span; slower requests land in the
    // overflow bucket, which Prometheus renders under +Inf anyway.
    http_.histogram("http." + name + ".latency_ms", 2, 50)
        .record(elapsedMs);
}

} // namespace mfusim
