/**
 * @file
 * SimService: the mfusim JSON API on top of HttpServer.
 */

#include "mfusim/serve/sim_service.hh"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "mfusim/codegen/livermore.hh"
#include "mfusim/core/clock.hh"
#include "mfusim/core/decoded_trace.hh"
#include "mfusim/core/error.hh"
#include "mfusim/core/faultpoint.hh"
#include "mfusim/core/stats.hh"
#include "mfusim/obs/req_trace.hh"
#include "mfusim/harness/spec_parse.hh"
#include "mfusim/harness/sweep.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/serve/json.hh"
#include "mfusim/serve/result_cache.hh"
#include "mfusim/sim/audit.hh"
#include "mfusim/sim/batched.hh"
#include "mfusim/spec/predictor.hh"

namespace mfusim
{

namespace
{

/** "%.4f" — the CLI's table precision, replicated for diffability. */
std::string
rateString(double rate)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", rate);
    return buf;
}

double
nowMsF()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The "loop" request field: a JSON number or spec string. */
std::string
loopSpecOf(const Json &value)
{
    if (value.isString())
        return value.asString();
    if (value.isNumber()) {
        const double n = value.asNumber();
        if (n != std::floor(n) || n < 1 || n > 1e6)
            throw ServeError(400, "'loop' must be an integer or a "
                                  "spec string like \"1x4\"");
        return std::to_string(std::int64_t(n));
    }
    throw ServeError(400, "'loop' must be a number or string");
}

/** True when @p spec is a canonical library loop id ("1".."14"). */
bool
isLibraryLoop(const std::string &spec, int *id)
{
    if (spec.empty() || spec.size() > 2)
        return false;
    for (const char c : spec)
        if (c < '0' || c > '9')
            return false;
    const int n = std::stoi(spec);
    for (const KernelSpec &k : kernelSpecs()) {
        if (k.id == n) {
            *id = n;
            return true;
        }
    }
    return false;
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
 * Optional "predictor" request field: a spec string (see
 * PredictorSpec::parse) that arms speculative execution on the
 * machine config.  Parse errors surface as ConfigError -> 400.
 */
void
applyPredictorField(const Json &body, MachineConfig *cfg)
{
    const Json *field = body.find("predictor");
    if (field == nullptr || field->isNull())
        return;
    if (!field->isString())
        throw ServeError(400, "'predictor' must be a spec string "
                              "like \"2bit\" or \"fixed:90\"");
    cfg->predictor = PredictorSpec::parse(field->asString());
    cfg->predictor.validate();
}

/** One timed cell, shared by /v1/simulate and /v1/sweep rows. */
struct CellOutcome
{
    SimResult result;
    std::string simName;
    bool cached = false;
    bool audited = false;
};

CellOutcome
runCell(const std::string &loopSpec, const std::string &machineSpec,
        const MachineConfig &cfg, bool auditFlag)
{
    auto sim = parseMachineSpec(machineSpec, cfg);
    CellOutcome out;
    out.simName = sim->name();
    out.audited = auditFlag || auditRequested();

    const auto simulate = [&]() -> SimResult {
        int id = 0;
        if (isLibraryLoop(loopSpec, &id)) {
            const DecodedTrace &decoded =
                TraceLibrary::instance().decoded(id, cfg);
            return out.audited ? runAudited(*sim, decoded)
                               : sim->run(decoded);
        }
        const DecodedTrace decoded(bodyForLoopSpec(loopSpec), cfg);
        return out.audited ? runAudited(*sim, decoded)
                           : sim->run(decoded);
    };

    const std::string machineKey = sim->cacheKey();
    if (machineKey.empty()) {
        out.result = simulate();
    } else if (reqTraceArmed()) {
        const std::uint64_t before = monoNanos();
        out.result = ResultCache::instance().getOrCompute(
            machineKey, "LL" + loopSpec, cfg, out.audited, simulate,
            &out.cached);
        // A hit's getOrCompute IS the probe; a miss's is dominated
        // by the simulation, so only the hit time is attributable to
        // the cache.
        if (out.cached)
            spanAnnotations().cacheNs = monoNanos() - before;
    } else {
        out.result = ResultCache::instance().getOrCompute(
            machineKey, "LL" + loopSpec, cfg, out.audited, simulate,
            &out.cached);
    }
    if (reqTraceArmed()) {
        SpanAnnotations &notes = spanAnnotations();
        notes.cacheHit = notes.cacheHit || out.cached;
        notes.audited = notes.audited || out.audited;
    }
    return out;
}

Json
cellJson(const std::string &loopSpec, const std::string &machineSpec,
         const MachineConfig &cfg, const CellOutcome &cell)
{
    Json out = Json::object();
    out.set("schema", Json("mfusim-serve-v1"));
    out.set("loop", Json("LL" + loopSpec));
    out.set("machine", Json(cell.simName));
    out.set("machine_spec", Json(machineSpec));
    out.set("config", Json(cfg.name()));
    out.set("instructions",
            Json(std::uint64_t(cell.result.instructions)));
    out.set("cycles", Json(std::uint64_t(cell.result.cycles)));
    out.set("rate", Json(cell.result.issueRate()));
    out.set("rate_str", Json(rateString(cell.result.issueRate())));
    out.set("cached", Json(cell.cached));
    out.set("audited", Json(cell.audited));
    out.set("steady_ops_skipped",
            Json(std::uint64_t(cell.result.steadyOpsSkipped)));
    if (cfg.predictor.armed()) {
        out.set("predictor", Json(cfg.predictor.key()));
        out.set("squashes",
                Json(std::uint64_t(cell.result.squashes)));
        out.set("wrong_path_ops",
                Json(std::uint64_t(cell.result.wrongPathOps)));
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
    const double start = nowMsF();
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
    record(request.path, response.status, nowMsF() - start);
    return response;
}

SimService::FastCell *
SimService::findFastCell(const std::string &body)
{
    // Bound the memo: distinct bodies in real traffic are the points
    // of a parameter grid, far below this.  A scanner spraying unique
    // bodies just stops being memoized (and keeps paying the worker
    // path for misses), it cannot grow the map without limit.
    constexpr std::size_t kMaxCells = 4096;

    const auto it = fastCells_.find(body);
    if (it != fastCells_.end())
        return it->second.usable ? &it->second : nullptr;
    if (fastCells_.size() >= kMaxCells)
        return nullptr;

    FastCell cell;
    try {
        const Json request = parseJson(body);
        if (request.isObject()) {
            cell.loopSpec = loopSpecOf(requireMember(request, "loop"));
            cell.traceKey = "LL" + cell.loopSpec;
            cell.machineSpec =
                requireMember(request, "machine").asString();
            const Json *cfgField = request.find("config");
            cell.cfg = parseConfigSpec(
                cfgField != nullptr ? cfgField->asString() : "M11BR5");
            // Without this the fast path would alias speculative and
            // non-speculative requests onto the same cache key.
            applyPredictorField(request, &cell.cfg);
            const Json *auditField = request.find("audit");
            cell.audited =
                (auditField != nullptr && auditField->asBool()) ||
                auditRequested();
            auto sim = parseMachineSpec(cell.machineSpec, cell.cfg);
            cell.simName = sim->name();
            cell.machineKey = sim->cacheKey();
            // An empty cacheKey means the cell is never cached, so
            // the fast path can never serve it.
            cell.usable = !cell.machineKey.empty();
        }
    } catch (...) {
        // Unparseable body / bad spec: a negative entry — the worker
        // path owns the canonical error response.
        cell = FastCell{};
    }
    FastCell &stored = fastCells_.emplace(body, std::move(cell))
                           .first->second;
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
    const double start = nowMsF();
    if (request.path == "/healthz") {
        if (request.method != "GET" && request.method != "HEAD")
            return false;
        *response = handleHealthz();
        record("/healthz", response->status, nowMsF() - start);
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
    if (!ResultCache::instance().probeHit(
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
        CellOutcome out;
        out.result = result;
        out.simName = cell->simName;
        out.cached = true;
        out.audited = cell->audited;
        cell->rendered = cellJson(cell->loopSpec, cell->machineSpec,
                                  cell->cfg, out)
                             .dump() +
            "\n";
    }
    *response =
        HttpResponse(200, "application/json", cell->rendered);
    record("/v1/simulate", 200, nowMsF() - start);
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
    const Json request = parseJson(body);
    if (!request.isObject())
        throw ServeError(400, "request body must be a JSON object");

    const std::string loopSpec =
        loopSpecOf(requireMember(request, "loop"));
    const std::string machineSpec =
        requireMember(request, "machine").asString();
    const Json *cfgField = request.find("config");
    MachineConfig cfg = parseConfigSpec(
        cfgField != nullptr ? cfgField->asString() : "M11BR5");
    applyPredictorField(request, &cfg);
    const Json *auditField = request.find("audit");
    const bool audit =
        auditField != nullptr && auditField->asBool();

    const CellOutcome cell =
        runCell(loopSpec, machineSpec, cfg, audit);
    return HttpResponse(
        200, "application/json",
        cellJson(loopSpec, machineSpec, cfg, cell).dump() + "\n");
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
    if (machineSpecs.size() > options_.maxSweepMachines)
        throw ServeError(400,
                         "sweep of " +
                             std::to_string(machineSpecs.size()) +
                             " machines exceeds the cap of " +
                             std::to_string(
                                 options_.maxSweepMachines));
    const Json *cfgField = request.find("config");
    MachineConfig cfg = parseConfigSpec(
        cfgField != nullptr ? cfgField->asString() : "M11BR5");
    applyPredictorField(request, &cfg);

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
            int id = 0;
            if (!isLibraryLoop(loopSpecOf(item), &id))
                throw ServeError(400, "'loops' entries must be "
                                      "library loop ids (1..14)");
            loops.push_back(id);
        }
    }
    if (loops.empty())
        throw ServeError(400, "'loops' must not be empty");
    if (loops.size() > options_.maxSweepLoops)
        throw ServeError(400, "sweep of " +
                                  std::to_string(loops.size()) +
                                  " loops exceeds the cap of " +
                                  std::to_string(
                                      options_.maxSweepLoops));

    // Optional 'jobs' caps the intra-sweep parallelism; 0/absent
    // means the process default.  Bounded so one request cannot
    // oversubscribe the worker pool's host arbitrarily.
    unsigned jobs = 0;
    if (const Json *jobsField = request.find("jobs");
        jobsField != nullptr && !jobsField->isNull()) {
        const double raw = jobsField->asNumber();
        if (raw < 0 || raw > 256 ||
            raw != static_cast<double>(
                       static_cast<unsigned>(raw)))
            throw ServeError(400,
                             "'jobs' must be an integer in [0, 256]");
        jobs = static_cast<unsigned>(raw);
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
            bool vectorizable = false;
            for (const KernelSpec &spec : kernelSpecs())
                if (spec.id == loops[i])
                    vectorizable = spec.vectorizable;
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
        char *end = nullptr;
        const unsigned long parsed =
            std::strtoul(query.c_str() + 5, &end, 10);
        if (end == nullptr || *end != '\0')
            throw ServeError(400, "'last' must be an integer");
        lastN = std::size_t(parsed);
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
SimService::record(const std::string &endpoint, int status,
                   double elapsedMs)
{
    std::lock_guard<std::mutex> lock(metricsMutex_);
    http_.counter("http.requests").increment();
    const std::string statusClass =
        status >= 500 ? "5xx" : status >= 400 ? "4xx" : "2xx";
    http_.counter("http.responses." + statusClass).increment();

    // Per-endpoint counter + latency histogram for the routed
    // endpoints (unknown paths aggregate under "other" so a path
    // scanner cannot inflate the registry without bound).
    std::string name = "other";
    if (endpoint == "/v1/simulate")
        name = "simulate";
    else if (endpoint == "/v1/sweep")
        name = "sweep";
    else if (endpoint == "/healthz")
        name = "healthz";
    else if (endpoint == "/metrics")
        name = "metrics";
    else if (endpoint == "/v1/trace")
        name = "trace";
    http_.counter("http." + name + ".requests").increment();
    // 2 ms buckets x 50 = 100 ms span; slower requests land in the
    // overflow bucket, which Prometheus renders under +Inf anyway.
    http_.histogram("http." + name + ".latency_ms", 2, 50)
        .record(std::uint64_t(elapsedMs < 0 ? 0 : elapsedMs));
}

} // namespace mfusim
