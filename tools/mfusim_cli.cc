/**
 * @file
 * mfusim command-line tool: inspect kernels, generate and save
 * traces, analyze trace structure, and time traces on any machine
 * organization without writing code.
 *
 * Usage:
 *   mfusim [--jobs N] [--audit] [--no-steady-state]
 *          [--predictor SPEC]
 *          [--trace-out F] [--metrics-out F] [--pipeview]
 *          <command> ...
 *
 *   mfusim --version
 *   mfusim list
 *   mfusim disasm  <loop>
 *   mfusim analyze <loop> [config]
 *   mfusim limits  <loop> [config]
 *   mfusim rate    <loop> <machine> [config]
 *   mfusim save    <loop> <file>
 *   mfusim replay  <file> <machine> [config]
 *   mfusim serve   [--port N] [--workers K] [--queue-depth D]
 *                  [--deadline-ms M] [--max-body B] [--cache-dir P]
 *                  [--header-timeout-ms H] [--write-timeout-ms W]
 *                  [--idle-timeout-ms I] [--max-pipeline P]
 *                  [--slow-request-ms S] [--trace-ring N]
 *                  [--trace-dump PREFIX] [--no-request-trace]
 *
 * --jobs N  worker threads for sweeps (also: MFUSIM_JOBS env var);
 *           used by "rate all"
 * --audit   run every simulation under the SimAudit legality checker
 *           (also: MFUSIM_AUDIT=1 env var); a violated invariant
 *           aborts with exit code 6
 * --no-steady-state
 *           disable the steady-state extrapolation fast path (also:
 *           MFUSIM_NO_STEADY_STATE=1 env var); results are identical
 *           either way — this is a debugging escape hatch
 * --predictor SPEC
 *           arm a branch predictor on the run's machine config.  SPEC
 *           is perfect | taken | btfn | 2bit[:TABLE] |
 *           fixed:PCT[:sSEED] with an optional ":wN" wrong-path-window
 *           suffix (N in [0,4096], default 8), e.g. "2bit:1024:w8" or
 *           "fixed:90".  The single-issue machines fetch no wrong path
 *           and take only ":w0" (or perfect); "simple" takes none.
 *           Equivalent to the ",pred=SPEC" machine-spec option, and
 *           exclusive with it (exit 3).
 * --trace-out F    (rate/replay, single loop) write the pipeline
 *           schedule as Chrome/Perfetto trace-event JSON to F
 * --metrics-out F  (rate/replay) write the run's MetricsRegistry to
 *           F — JSON, or CSV when F ends in ".csv"; with "rate all"
 *           the per-loop registries are merged across the sweep
 * --pipeview       (rate/replay, single loop) print an ASCII
 *           pipeline diagram of the first ops to stdout
 * --version print the git revision this binary was built from
 *
 * Attaching any of the observability sinks disables the steady-state
 * fast path for that run, so traces and metrics are cycle-exact.
 *
 * Exit codes: 0 success, 1 generic failure, 2 usage, 3 bad config,
 * 4 bad trace, 5 simulator failure (livelock watchdog / unsupported
 * trace), 6 audit violation, 7 sweep cell failure(s), 8 serve
 * failure (e.g. the port is taken), 128+signo when a sweep is
 * interrupted by SIGINT/SIGTERM (partial output is still flushed).
 *
 * serve: a batching simulation-as-a-service HTTP daemon — see
 * docs/SERVING.md.  --port P (default 8100, 0 = ephemeral),
 * --workers K request workers (default 4, at most 1024: each is a
 * thread), --queue-depth D bounded
 * admission queue (default 64, overflow answers 429), --deadline-ms
 * M per-request deadline (default 30000), --max-body B largest
 * accepted body in bytes (default 1 MiB), --cache-dir P persist the
 * result cache to a crash-safe journal under P (restarts warm-load
 * it), --header-timeout-ms H anti-slowloris header-phase deadline
 * (default 5000), --write-timeout-ms W response-write budget
 * (default 10000), --idle-timeout-ms I parked keep-alive timeout
 * (default 5000), --max-pipeline P pipelined-requests-per-connection
 * bound (default 16).  SIGINT/SIGTERM drain gracefully.
 * MFUSIM_FAULTS arms deterministic fault injection for chaos testing
 * (see core/faultpoint.hh for the spec grammar).
 *
 * serve tracing (obs/req_trace.hh, docs/SERVING.md): request
 * lifecycle tracing is on by default — every request is phase-
 * stamped into per-worker flight-recorder rings, exported live via
 * GET /v1/trace?last=N and dumped to <PREFIX>-<n>.json on SIGUSR2
 * (--trace-dump PREFIX, default "mfusim-trace").  --trace-ring N
 * sets spans retained per ring (default 2048), --slow-request-ms S
 * logs a structured line for requests slower than S ms (default 0 =
 * off), --no-request-trace disarms the whole subsystem (/v1/trace
 * then answers 503).
 * <loop>    1..14 (optionally "<id>x<factor>" for an unrolled
 *           variant, e.g. "1x4", or "<id>v" for a vector-unit
 *           compilation, e.g. "7v"), or "all" (rate only): every
 *           library loop, timed on the sweep worker pool.  Numbers
 *           are decimal digits ("05" is loop 5); anything else, e.g.
 *           "5zz", "+5" or "7vv", exits 2.
 * <config>  M11BR5 (default) | M11BR2 | M5BR5 | M5BR2
 * <machine> simple | serialmem | nonseg | cray | cdc |
 *           tomasulo[:<rs>[:<cdb>]] |
 *           seq:<w> | ooo:<w> | ruu:<w>:<size>
 *           with at most one bus option, ",1bus" or ",xbar" (seq,
 *           ooo, ruu and cdc only), and at most one branch model:
 *           ",pred=SPEC" or its aliases ",btfn" (= ",pred=btfn:w0")
 *           and ",oracle" (= ",pred=perfect"), in any order, e.g.
 *           "ruu:4:50,1bus,oracle" or "ooo:4,pred=2bit".  A second
 *           branch model exits 3; a repeated, empty or unread option
 *           or field exits 2.
 */

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include "mfusim/mfusim.hh"
#include "mfusim/obs/req_trace.hh"

#ifndef MFUSIM_GIT_SHA
#define MFUSIM_GIT_SHA "unknown"
#endif

#ifndef MFUSIM_BUILD_TYPE
#define MFUSIM_BUILD_TYPE "unknown"
#endif

using namespace mfusim;

namespace
{

/** Global observability options (set by the flag stripper). */
struct ObsOptions
{
    std::string traceOut;
    std::string metricsOut;
    bool pipeview = false;

    bool active() const
    {
        return !traceOut.empty() || !metricsOut.empty() || pipeview;
    }
};

ObsOptions g_obs;

/** --predictor SPEC, applied to every command's machine config. */
std::string g_predictor;

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: mfusim [--jobs N] [--audit] "
                 "[--no-steady-state]\n"
                 "       [--predictor SPEC]\n"
                 "       [--trace-out F] [--metrics-out F] "
                 "[--pipeview]\n"
                 "       "
                 "list | disasm <loop> | analyze <loop> [cfg] |\n"
                 "       limits <loop> [cfg] | "
                 "rate <loop>|all <machine> [cfg] |\n"
                 "       save <loop> <file> | "
                 "replay <file> <machine> [cfg] |\n"
                 "       serve [--port N] [--workers K] "
                 "[--queue-depth D]\n"
                 "             [--deadline-ms M] [--max-body B] "
                 "[--cache-dir P]\n"
                 "             [--header-timeout-ms H] "
                 "[--write-timeout-ms W]\n"
                 "             [--idle-timeout-ms I] "
                 "[--max-pipeline P]\n"
                 "             [--slow-request-ms S] "
                 "[--trace-ring N]\n"
                 "             [--trace-dump PREFIX] "
                 "[--no-request-trace]\n"
                 "             (--workers K at most 1024)\n"
                 "       mfusim --version\n");
    std::exit(2);
}

/**
 * @p value of numeric flag @p flag as a T no larger than @p max, or
 * exit 2.  parseDecimal() takes digits only, so "-1", " 0" and a
 * 70000 port are usage errors, never wrapped.
 */
template <typename T>
T
flagNumber(const std::string &flag, const std::string &value,
           T max = std::numeric_limits<T>::max())
{
    if (const std::optional<T> n = parseDecimal<T>(value, max))
        return *n;
    std::fprintf(stderr, "%s expects a number from 0 to %llu, got '%s'\n",
                 flag.c_str(), (unsigned long long)max, value.c_str());
    std::exit(2);
}

/**
 * @p parse(@p args...), a spec parser of harness/spec_parse.hh (the
 * serve daemon uses it too), with the CLI's historical behaviour: a
 * bad spec prints to stderr and exits with the usage code (2)
 * instead of the ConfigError code (3).  A well-formed spec whose
 * branch model conflicts (BranchModelError) keeps code 3.
 */
template <typename Parse, typename... Args>
auto
specOrExit(const Parse &parse, const Args &...args)
{
    try {
        return parse(args...);
    } catch (const BranchModelError &) {
        throw;
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
    }
}

/** Write @p metrics to @p path — CSV by extension, JSON otherwise. */
void
writeMetricsFile(const MetricsRegistry &metrics,
                 const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        throw Error("cannot open '" + path + "'");
    const bool csv = path.size() >= 4 &&
                     path.compare(path.size() - 4, 4, ".csv") == 0;
    if (csv)
        metrics.writeCsv(out);
    else
        metrics.writeJson(out);
}

/**
 * Run @p sim on @p dyn honoring the global observability flags.
 *
 * With no flags this is the plain (or audited) run.  With any flag
 * set the run is phased — decode, period-detect, simulate, each
 * wall-timed into a profile.* gauge — with a PipeTraceRecorder
 * attached (which disables the steady-state fast path, making every
 * output cycle-exact), and the requested artifacts are written
 * afterwards.  --audit composes: runWithSinks() audits the
 * recorder's schedule, and the simulate phase includes the check.
 */
SimResult
runObserved(Simulator &sim, const DynTrace &dyn,
            const MachineConfig &cfg)
{
    const bool audit = auditRequested();
    if (!g_obs.active())
        return audit ? runAudited(sim, DecodedTrace(dyn, cfg))
                     : sim.run(dyn);

    MetricsRegistry metrics;
    std::unique_ptr<DecodedTrace> decoded;
    {
        ScopedPhaseTimer phase(
            metrics.gauge("profile.decode_seconds"));
        decoded = std::make_unique<DecodedTrace>(dyn, cfg);
    }
    {
        // Periodicity is computed lazily; forcing it here separates
        // its cost from the simulate phase.
        ScopedPhaseTimer phase(
            metrics.gauge("profile.period_detect_seconds"));
        (void)decoded->periodicity();
    }

    PipeTraceRecorder recorder(decoded->size());
    SimResult result;
    {
        ScopedPhaseTimer phase(
            metrics.gauge("profile.simulate_seconds"));
        result = runWithSinks(sim, *decoded, &recorder, audit);
    }

    populateRunMetrics(metrics, *decoded, recorder, result, sim);

    if (!g_obs.traceOut.empty()) {
        std::ofstream out(g_obs.traceOut);
        if (!out)
            throw Error("cannot open '" + g_obs.traceOut + "'");
        writeChromeTrace(out, recorder, *decoded,
                         sim.name() + " " + cfg.name() + " " +
                             dyn.name());
    }
    if (!g_obs.metricsOut.empty())
        writeMetricsFile(metrics, g_obs.metricsOut);
    if (g_obs.pipeview)
        writePipeview(std::cout, recorder, *decoded);
    return result;
}

int
cmdList()
{
    AsciiTable table;
    table.setHeader({ "Loop", "Name", "Class", "Ops", "Branches",
                      "Mem%", "BTFN%" });
    for (const KernelSpec &spec : kernelSpecs()) {
        const TraceStats &stats =
            TraceLibrary::instance().body(spec.id)->stats();
        table.addRow({
            "LL" + std::to_string(spec.id),
            spec.name,
            spec.vectorizable ? "vector" : "scalar",
            std::to_string(stats.totalOps),
            std::to_string(stats.branches),
            AsciiTable::num(stats.memoryFraction() * 100, 0),
            AsciiTable::num(stats.btfnAccuracy() * 100, 0),
        });
    }
    table.print(std::cout);
    return 0;
}

int
cmdDisasm(const std::string &loop)
{
    const Kernel kernel = buildLoopKernel(specOrExit(parseLoopSpec, loop));
    std::fputs(kernel.program.disassemble().c_str(), stdout);
    return 0;
}

int
cmdAnalyze(const std::string &loop, const MachineConfig &cfg)
{
    const LoopSpec spec = specOrExit(parseLoopSpec, loop);
    const DecodedTrace trace(traceForLoopSpec(spec), cfg);
    std::fputs(analyzeTrace(trace).c_str(), stdout);
    return 0;
}

int
cmdLimits(const std::string &loop, const MachineConfig &cfg)
{
    const LoopSpec spec = specOrExit(parseLoopSpec, loop);
    const DecodedTrace trace(traceForLoopSpec(spec), cfg);
    const LimitResult pure = computeLimits(trace, false);
    const LimitResult serial = computeLimits(trace, true);
    std::printf("loop %s, %s:\n", spec.name.c_str(), cfg.name().c_str());
    std::printf("  pseudo-dataflow  %.3f (%llu cycles)\n",
                pure.pseudoRate,
                (unsigned long long)pure.pseudoCycles);
    std::printf("  resource         %.3f (%llu cycles)\n",
                pure.resourceRate,
                (unsigned long long)pure.resourceCycles);
    std::printf("  actual           %.3f\n", pure.actualRate);
    std::printf("  serial (no WAW)  %.3f\n", serial.actualRate);
    return 0;
}

int
cmdRateAll(const std::string &machine, const MachineConfig &cfg)
{
    // One grid cell per library loop, timed on the sweep worker
    // pool (mfusim --jobs N / MFUSIM_JOBS).  Ctrl-C / SIGTERM stop
    // the grid at cell granularity; the partial table and metrics
    // file are still flushed before exiting 128+signo.
    installShutdownHandler();
    // Parse once up front: a bad spec fails here, not in every cell.
    const std::string sim_name =
        specOrExit(parseMachineSpec, machine, cfg)->name();
    const SimFactory factory = [&machine](const MachineConfig &c) {
        return specOrExit(parseMachineSpec, machine, c);
    };
    if (!g_obs.traceOut.empty() || g_obs.pipeview) {
        std::fprintf(stderr, "--trace-out/--pipeview need a single "
                             "loop, not 'all'\n");
        return 2;
    }
    std::vector<int> loops;
    for (const KernelSpec &spec : kernelSpecs())
        loops.push_back(spec.id);
    std::vector<double> rates;
    if (!g_obs.metricsOut.empty()) {
        // Instrumented sweep: per-cell registries, merged in loop
        // order.
        SweepMetrics sweep =
            parallelPerLoopMetrics(factory, loops, cfg);
        rates = std::move(sweep.rates);
        writeMetricsFile(sweep.metrics, g_obs.metricsOut);
    } else {
        rates = parallelPerLoopRates(factory, loops, cfg);
    }

    std::printf("%s, %s (%u jobs):\n", sim_name.c_str(),
                cfg.name().c_str(), defaultSweepJobs());
    AsciiTable table;
    table.setHeader({ "Loop", "Class", "Rate" });
    std::vector<double> scalar_rates, vector_rates;
    for (std::size_t i = 0; i < loops.size(); ++i) {
        const bool vec = kernelSpecs()[i].vectorizable;
        (vec ? vector_rates : scalar_rates).push_back(rates[i]);
        table.addRow({ "LL" + std::to_string(loops[i]),
                       vec ? "vector" : "scalar",
                       AsciiTable::num(rates[i], 4) });
    }
    table.print(std::cout);
    std::printf("harmonic mean: scalar %.4f, vectorizable %.4f\n",
                harmonicMean(scalar_rates),
                harmonicMean(vector_rates));
    if (shutdownRequested()) {
        std::fflush(stdout);
        std::fprintf(stderr,
                     "mfusim: interrupted by signal %d; partial "
                     "results flushed\n",
                     shutdownSignal());
        return 128 + shutdownSignal();
    }
    return 0;
}

namespace
{

/**
 * SIGUSR2 self-pipe: the handler only writes one byte (async-signal
 * safe); the serve park loop polls the read end and dumps the flight
 * recorder when it fires.  Mirrors the shutdown self-pipe pattern
 * (core/shutdown.hh) — SIGUSR2 stays CLI-local because only the
 * serve command gives it a meaning.
 */
int g_usr2Pipe[2] = { -1, -1 };

void
handleUsr2(int)
{
    const char byte = 1;
    [[maybe_unused]] ssize_t n = write(g_usr2Pipe[1], &byte, 1);
}

} // namespace

int
cmdServe(const std::vector<std::string> &args)
{
    ServeOptions opts;
    std::string cacheDir;
    bool traceEnabled = true;
    std::size_t traceRing = 2048;
    std::uint64_t slowRequestMs = 0;
    // The tracer keeps the slow-request threshold in nanoseconds.
    constexpr std::uint64_t kMaxSlowRequestMs =
        std::numeric_limits<std::uint64_t>::max() / 1000000u;
    std::string traceDumpPrefix = "mfusim-trace";
    for (std::size_t i = 0; i < args.size(); ++i) {
        const auto value = [&]() -> std::string {
            if (i + 1 >= args.size())
                usage();
            return args[++i];
        };
        // Parse a numeric flag into its destination's own type.
        const auto numeric = [&](auto &dest) {
            const std::string &flag = args[i];
            dest = flagNumber<std::remove_reference_t<decltype(dest)>>(
                flag, value());
        };
        if (args[i] == "--port")
            numeric(opts.port);
        else if (args[i] == "--workers")
            opts.workers = flagNumber<unsigned>("--workers", value(),
                                                kMaxServeWorkers);
        else if (args[i] == "--queue-depth")
            numeric(opts.queueDepth);
        else if (args[i] == "--deadline-ms")
            numeric(opts.deadlineMs);
        else if (args[i] == "--max-body")
            numeric(opts.maxBodyBytes);
        else if (args[i] == "--header-timeout-ms")
            numeric(opts.headerTimeoutMs);
        else if (args[i] == "--write-timeout-ms")
            numeric(opts.writeTimeoutMs);
        else if (args[i] == "--idle-timeout-ms")
            numeric(opts.idleTimeoutMs);
        else if (args[i] == "--max-pipeline")
            numeric(opts.maxPipeline);
        else if (args[i] == "--cache-dir")
            cacheDir = value();
        else if (args[i] == "--slow-request-ms")
            slowRequestMs = flagNumber<std::uint64_t>(
                "--slow-request-ms", value(), kMaxSlowRequestMs);
        else if (args[i] == "--trace-ring")
            numeric(traceRing);
        else if (args[i] == "--trace-dump")
            traceDumpPrefix = value();
        else if (args[i] == "--no-request-trace")
            traceEnabled = false;
        else
            usage();
    }
    if (traceRing == 0)
        traceRing = 1;

    // Arm fault injection from MFUSIM_FAULTS before any guarded code
    // runs; a typo in the spec must abort startup, not be silently
    // inert during a chaos run.
    try {
        FaultRegistry::instance().configureFromEnv();
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "mfusim serve: MFUSIM_FAULTS: %s\n",
                     e.what());
        return 3;
    }
    if (FaultRegistry::instance().armed())
        std::printf("mfusim serve: fault injection armed: %s\n",
                    FaultRegistry::instance().spec().c_str());
    // A malformed MFUSIM_JOBS aborts startup (exit 3) instead of
    // failing every /v1/sweep.
    (void)defaultSweepJobs();

    // Install the drain handler BEFORE the server threads start so
    // every thread inherits the disposition.
    installShutdownHandler();
    ResultCache::instance().setVersion(MFUSIM_GIT_SHA);

    // Warm-load the persistent result cache before serving starts:
    // a restarted daemon answers its first request from disk state.
    if (!cacheDir.empty()) {
        try {
            const PersistLoadStats load =
                ResultCache::instance().attachPersist(
                    std::make_unique<PersistentCache>(cacheDir));
            std::printf(
                "mfusim serve: cache journal %s: recovered %llu "
                "entr%s (%llu discarded, %llu bytes truncated%s)\n",
                ResultCache::instance().persist()->path().c_str(),
                (unsigned long long)load.recovered,
                load.recovered == 1 ? "y" : "ies",
                (unsigned long long)(load.discardedCorrupt +
                                     load.discardedVersion),
                (unsigned long long)load.truncatedBytes,
                load.loadFailed ? "; warm-load failed, starting cold"
                                : "");
        } catch (const Error &e) {
            std::fprintf(stderr,
                         "mfusim serve: --cache-dir %s unusable: %s; "
                         "continuing without persistence\n",
                         cacheDir.c_str(), e.what());
        }
    }

    // An event-driven server's connection capacity IS its fd budget:
    // raise the soft RLIMIT_NOFILE to the hard cap so thousands of
    // parked keep-alive connections do not hit a 1024-fd default.
    struct rlimit nofile;
    if (getrlimit(RLIMIT_NOFILE, &nofile) == 0 &&
        nofile.rlim_cur < nofile.rlim_max) {
        nofile.rlim_cur = nofile.rlim_max;
        setrlimit(RLIMIT_NOFILE, &nofile);
    }

    // The flight recorder: one ring per worker track plus the
    // reactor's, alive for the whole serve run.  Declared before the
    // server so it strictly outlives it (the server publishes into
    // it until stop() returns).
    std::unique_ptr<RequestTracer> tracer;
    if (traceEnabled) {
        ReqTraceOptions traceOpts;
        traceOpts.ringCapacity = traceRing;
        traceOpts.workers = opts.workers == 0 ? 1 : opts.workers;
        traceOpts.slowRequestNs = slowRequestMs * 1000000u;
        tracer = std::make_unique<RequestTracer>(traceOpts);
        // Fault fires become instant events on the trace timeline.
        RequestTracer *raw = tracer.get();
        FaultRegistry::instance().setFireListener(
            [raw](const std::string &point) {
                raw->recordFault(point);
            });
    }

    SimServiceOptions serviceOpts;
    serviceOpts.version = MFUSIM_GIT_SHA;
    serviceOpts.gitSha = MFUSIM_GIT_SHA;
    serviceOpts.buildType = MFUSIM_BUILD_TYPE;
    serviceOpts.tracer = tracer.get();
    SimService service(serviceOpts);
    HttpServer server(opts,
                      [&service](const HttpRequest &request,
                                 unsigned budgetMs) {
                          return service.handle(request, budgetMs);
                      });
    service.setServer(&server);
    server.setFastHandler([&service](const HttpRequest &request,
                                     HttpResponse *response) {
        return service.tryFastAnswer(request, response);
    });
    server.setTracer(tracer.get());

    // SIGUSR2 dumps the flight recorder to a file without disturbing
    // the daemon — installed before the server threads spawn so every
    // thread inherits the disposition (the self-pipe makes it safe
    // from any of them).
    if (tracer != nullptr && g_usr2Pipe[0] < 0 &&
        pipe(g_usr2Pipe) == 0) {
        struct sigaction sa;
        std::memset(&sa, 0, sizeof(sa));
        sa.sa_handler = handleUsr2;
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = SA_RESTART;
        sigaction(SIGUSR2, &sa, nullptr);
    }

    server.start();
    std::printf("mfusim serve %s listening on port %u "
                "(%u workers, queue depth %u, deadline %u ms)\n",
                MFUSIM_GIT_SHA, server.port(), opts.workers,
                opts.queueDepth, opts.deadlineMs);
    std::fflush(stdout);

    // Park until SIGINT/SIGTERM: the self-pipe becomes readable the
    // instant the signal lands.  SIGUSR2 (second slot) dumps the
    // flight recorder and keeps serving.
    struct pollfd pfds[2] = { { shutdownFd(), POLLIN, 0 },
                              { g_usr2Pipe[0], POLLIN, 0 } };
    const nfds_t npfds = g_usr2Pipe[0] >= 0 ? 2 : 1;
    unsigned dumpCount = 0;
    while (!shutdownRequested()) {
        pfds[0].revents = pfds[1].revents = 0;
        if (poll(pfds, npfds, 1000) < 0 && errno != EINTR)
            break;
        if (npfds > 1 && (pfds[1].revents & POLLIN) != 0) {
            // One read drains all coalesced signal bytes; a burst
            // beyond the buffer just means one extra (harmless) dump
            // on the next loop.
            char drain[256];
            [[maybe_unused]] ssize_t got =
                read(g_usr2Pipe[0], drain, sizeof(drain));
            const std::string path = traceDumpPrefix + "-" +
                std::to_string(dumpCount++) + ".json";
            std::ofstream out(path);
            if (out) {
                tracer->writeServeTrace(out, 0);
                std::printf(
                    "mfusim serve: SIGUSR2, dumped flight "
                    "recorder to %s\n",
                    path.c_str());
            } else {
                std::fprintf(stderr,
                             "mfusim serve: SIGUSR2 dump to %s "
                             "failed\n",
                             path.c_str());
            }
            std::fflush(stdout);
        }
    }
    std::printf("mfusim serve: signal %d, draining...\n",
                shutdownSignal());
    std::fflush(stdout);
    server.stop();
    // The server is drained and its threads joined: no publisher can
    // touch the tracer past here, so the fault listener can go.
    FaultRegistry::instance().setFireListener(nullptr);
    // Make sure every journaled result survives the exit: appends
    // are fsync'd only periodically while serving.
    ResultCache::instance().flushPersist();
    ResultCache::instance().detachPersist();
    std::printf("mfusim serve: drained, bye\n");
    return 0;
}

int
cmdRate(const std::string &loop, const std::string &machine,
        const MachineConfig &cfg)
{
    if (loop == "all")
        return cmdRateAll(machine, cfg);
    const DynTrace trace = traceForLoopSpec(specOrExit(parseLoopSpec, loop));
    auto sim = specOrExit(parseMachineSpec, machine, cfg);
    const SimResult result = runObserved(*sim, trace, cfg);
    // The simulator's own config may carry a ",pred=" predictor the
    // outer cfg does not; print the name the run actually used.
    std::printf("%s on %s, %s: %.4f instr/cycle "
                "(%llu instructions, %llu cycles)%s\n",
                trace.name().c_str(), sim->name().c_str(),
                sim->config().name().c_str(), result.issueRate(),
                (unsigned long long)result.instructions,
                (unsigned long long)result.cycles,
                auditRequested() ? " [audited]" : "");
    return 0;
}

int
cmdSave(const std::string &loop, const std::string &path)
{
    const DynTrace trace = traceForLoopSpec(specOrExit(parseLoopSpec, loop));
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
        return 1;
    }
    saveTrace(out, trace);
    std::printf("wrote %zu ops to %s\n", trace.size(), path.c_str());
    return 0;
}

int
cmdReplay(const std::string &path, const std::string &machine,
          const MachineConfig &cfg)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
        return 1;
    }
    const DynTrace trace = loadTrace(in);
    auto sim = specOrExit(parseMachineSpec, machine, cfg);
    const SimResult result = runObserved(*sim, trace, cfg);
    std::printf("%s on %s, %s: %.4f instr/cycle%s\n",
                trace.name().c_str(), sim->name().c_str(),
                sim->config().name().c_str(), result.issueRate(),
                auditRequested() ? " [audited]" : "");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip the global --jobs option before command dispatch.
    const auto parse_jobs = [](const std::string &value) {
        setDefaultSweepJobs(flagNumber<unsigned>("--jobs", value));
    };
    std::vector<std::string> args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs") {
            if (i + 1 >= argc)
                usage();
            parse_jobs(argv[++i]);
        } else if (arg.rfind("--jobs=", 0) == 0) {
            parse_jobs(arg.substr(7));
        } else if (arg == "--audit") {
            setAuditRequested(true);
        } else if (arg == "--no-steady-state") {
            setSteadyStateEnabled(false);
        } else if (arg == "--predictor") {
            if (i + 1 >= argc)
                usage();
            g_predictor = argv[++i];
        } else if (arg.rfind("--predictor=", 0) == 0) {
            g_predictor = arg.substr(12);
        } else if (arg == "--trace-out") {
            if (i + 1 >= argc)
                usage();
            g_obs.traceOut = argv[++i];
        } else if (arg.rfind("--trace-out=", 0) == 0) {
            g_obs.traceOut = arg.substr(12);
        } else if (arg == "--metrics-out") {
            if (i + 1 >= argc)
                usage();
            g_obs.metricsOut = argv[++i];
        } else if (arg.rfind("--metrics-out=", 0) == 0) {
            g_obs.metricsOut = arg.substr(14);
        } else if (arg == "--pipeview") {
            g_obs.pipeview = true;
        } else if (arg == "--version") {
            std::printf("mfusim %s\n", MFUSIM_GIT_SHA);
            return 0;
        } else {
            args.push_back(arg);
        }
    }
    argc = int(args.size()) + 1;
    std::vector<char *> argv_vec{ argv[0] };
    for (std::string &arg : args)
        argv_vec.push_back(arg.data());
    argv = argv_vec.data();

    if (argc < 2)
        usage();
    const std::string cmd = argv[1];
    const auto cfg_arg = [&](int index) {
        MachineConfig cfg = index < argc ?
            specOrExit(parseConfigSpec, argv[index]) : configM11BR5();
        if (!g_predictor.empty()) {
            try {
                cfg.predictor = PredictorSpec::parse(g_predictor);
                cfg.predictor.validate();
            } catch (const ConfigError &e) {
                std::fprintf(stderr, "--predictor: %s\n", e.what());
                std::exit(2);
            }
        }
        return cfg;
    };

    // Typed mfusim errors map to distinct exit codes (see the file
    // comment); anything else is a generic failure (1).
    try {
        if (cmd == "list")
            return cmdList();
        if (cmd == "disasm" && argc >= 3)
            return cmdDisasm(argv[2]);
        if (cmd == "analyze" && argc >= 3)
            return cmdAnalyze(argv[2], cfg_arg(3));
        if (cmd == "limits" && argc >= 3)
            return cmdLimits(argv[2], cfg_arg(3));
        if (cmd == "rate" && argc >= 4)
            return cmdRate(argv[2], argv[3], cfg_arg(4));
        if (cmd == "save" && argc >= 4)
            return cmdSave(argv[2], argv[3]);
        if (cmd == "replay" && argc >= 4)
            return cmdReplay(argv[2], argv[3], cfg_arg(4));
        if (cmd == "serve")
            return cmdServe(
                std::vector<std::string>(args.begin() + 1,
                                         args.end()));
    } catch (const Error &e) {
        std::fprintf(stderr, "mfusim: %s\n", e.what());
        return e.exitCode();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "mfusim: %s\n", e.what());
        return 1;
    }
    usage();
}
