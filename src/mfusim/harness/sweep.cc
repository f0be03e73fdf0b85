/**
 * @file
 * Parallel sweep runner implementation.
 */

#include "mfusim/harness/sweep.hh"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>

#include "mfusim/core/error.hh"
#include "mfusim/core/lexical.hh"
#include "mfusim/core/shutdown.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/obs/pipe_trace.hh"
#include "mfusim/obs/run_metrics.hh"
#include "mfusim/serve/result_cache.hh"
#include "mfusim/sim/audit.hh"
#include "mfusim/sim/batched.hh"
#include "mfusim/sim/simulator.hh"

namespace mfusim
{

namespace
{

std::atomic<unsigned> g_jobs_override{ 0 };

// True on threads that are themselves runGrid workers: a body that
// calls back into runGrid (a table driver invoking a parallel
// helper) runs the nested grid inline instead of spawning a second
// pool.
thread_local bool t_in_worker = false;

unsigned
jobsFromEnvironment()
{
    if (const char *env = std::getenv("MFUSIM_JOBS")) {
        const std::optional<unsigned> jobs = parseDecimal<unsigned>(env);
        if (!jobs)
            throw ConfigError("MFUSIM_JOBS='" + std::string(env) +
                              "' is not a worker count (decimal digits"
                              " within 32 bits; 0 = one per CPU)");
        if (*jobs > 0)
            return *jobs;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

} // namespace

unsigned
defaultSweepJobs()
{
    const unsigned jobs = g_jobs_override.load();
    return jobs > 0 ? jobs : jobsFromEnvironment();
}

void
setDefaultSweepJobs(unsigned jobs)
{
    g_jobs_override.store(jobs);
}

namespace
{

std::string
describeCurrentException()
{
    try {
        throw;
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "unknown exception";
    }
}

} // namespace

void
runGrid(std::size_t cells,
        const std::function<void(std::size_t)> &body, unsigned jobs,
        GridFailurePolicy policy)
{
    if (cells == 0)
        return;
    if (jobs == 0)
        jobs = defaultSweepJobs();
    if (jobs > cells)
        jobs = unsigned(cells);

    std::vector<SweepError::Failure> failures;
    std::mutex failures_mutex;

    if (jobs <= 1 || t_in_worker) {
        for (std::size_t i = 0; i < cells; ++i) {
            // Cooperative shutdown (core/shutdown.hh): stop handing
            // out cells after SIGINT/SIGTERM so the caller can flush
            // partial output.  Inert unless the entry point installed
            // the handler.
            if (shutdownRequested())
                break;
            try {
                body(i);
            } catch (...) {
                failures.push_back(
                    SweepError::Failure{ i,
                                         describeCurrentException() });
                if (policy == GridFailurePolicy::kStopOnFailure)
                    break;
            }
        }
        if (!failures.empty())
            throw SweepError(std::move(failures), cells);
        return;
    }

    std::atomic<std::size_t> next{ 0 };

    const auto work = [&] {
        t_in_worker = true;
        for (;;) {
            if (shutdownRequested())
                break;
            const std::size_t i = next.fetch_add(1);
            if (i >= cells)
                break;
            try {
                body(i);
            } catch (...) {
                const std::string what = describeCurrentException();
                std::lock_guard<std::mutex> lock(failures_mutex);
                failures.push_back(SweepError::Failure{ i, what });
                if (policy == GridFailurePolicy::kStopOnFailure) {
                    // Drain the remaining cells so all workers stop
                    // promptly.
                    next.store(cells);
                    break;
                }
            }
        }
        t_in_worker = false;
    };

    std::vector<std::thread> pool;
    pool.reserve(jobs - 1);
    for (unsigned w = 1; w < jobs; ++w)
        pool.emplace_back(work);
    work();     // the calling thread is worker 0
    for (std::thread &thread : pool)
        thread.join();

    if (!failures.empty()) {
        // Workers finish in nondeterministic order; sort so the
        // report (and tests) are stable.
        std::sort(failures.begin(), failures.end(),
                  [](const SweepError::Failure &a,
                     const SweepError::Failure &b) {
                      return a.cell < b.cell;
                  });
        throw SweepError(std::move(failures), cells);
    }
}

namespace
{

/**
 * runGrid() with one cell per loop, every cell attempted; a failure
 * is re-keyed from its cell index to the caller's terms, "loop <id>
 * (<config>): <message>".
 */
void
runLoopGrid(const std::vector<int> &loops, const MachineConfig &cfg,
            unsigned jobs, const std::function<void(std::size_t)> &body)
{
    try {
        runGrid(loops.size(), body, jobs, GridFailurePolicy::kContinue);
    } catch (const SweepError &e) {
        std::vector<SweepError::Failure> failures;
        failures.reserve(e.failures().size());
        for (const SweepError::Failure &f : e.failures()) {
            failures.push_back(SweepError::Failure{
                f.cell,
                "loop " + std::to_string(loops[f.cell]) + " (" +
                    cfg.name() + "): " + f.message });
        }
        throw SweepError(std::move(failures), loops.size());
    }
}

} // namespace

std::vector<double>
parallelPerLoopRates(const SimFactory &factory,
                     const std::vector<int> &loops,
                     const MachineConfig &cfg, unsigned jobs)
{
    // The single-variant sweep is a one-lane batch per loop.
    return batchedPerLoopRates({ factory }, loops, cfg, jobs)
        .front();
}

std::vector<CachedCellResult>
runCachedCell(const std::vector<std::unique_ptr<Simulator>> &sims,
              const LoopSpec &loop, const MachineConfig &cfg,
              bool audited)
{
    ResultCache &cache = ResultCache::instance();
    const std::string traceKey = "LL" + loop.name;
    std::vector<CachedCellResult> out(sims.size());
    std::vector<std::string> keys(sims.size());
    std::vector<std::size_t> missed;
    for (std::size_t v = 0; v < sims.size(); ++v) {
        keys[v] = sims[v]->cacheKey();
        out[v].cached = !keys[v].empty() &&
            cache.probe(keys[v], traceKey, cfg, audited,
                        &out[v].result);
        if (!out[v].cached)
            missed.push_back(v);
    }
    if (missed.empty())
        return out;

    // Only a miss needs the trace: a library loop's view is shared
    // process-wide, any other loop decodes its own body here.
    std::optional<DecodedTrace> own;
    const DecodedTrace &trace = loop.isLibrary()
        ? TraceLibrary::instance().decoded(loop.id, cfg)
        : own.emplace(bodyForLoopSpec(loop), cfg);
    std::vector<SimResult> results;
    if (audited) {
        // Audited cells need the complete per-op event stream.
        for (const std::size_t v : missed)
            results.push_back(runAudited(*sims[v], trace));
    } else {
        std::vector<BatchLane> lanes;
        for (const std::size_t v : missed)
            lanes.push_back({ sims[v].get(), &trace });
        results = runBatch(lanes).results;
    }
    // Stored only once every simulation has returned: a cell that
    // throws stores (and counts) nothing.
    for (std::size_t m = 0; m < missed.size(); ++m) {
        const std::size_t v = missed[m];
        if (!keys[v].empty())
            cache.store(keys[v], traceKey, cfg, audited, results[m]);
        out[v].result = results[m];
    }
    return out;
}

std::vector<std::vector<double>>
batchedPerLoopRates(const std::vector<SimFactory> &variants,
                    const std::vector<int> &loops,
                    const MachineConfig &cfg, unsigned jobs)
{
    std::vector<std::vector<double>> rates(
        variants.size(), std::vector<double>(loops.size()));
    const bool audit = auditRequested();
    runLoopGrid(loops, cfg, jobs, [&](std::size_t i) {
        std::vector<std::unique_ptr<Simulator>> sims;
        for (const SimFactory &variant : variants)
            sims.push_back(variant(cfg));
        const LoopSpec loop{ loops[i], 0, false,
                             std::to_string(loops[i]) };
        const std::vector<CachedCellResult> cell =
            runCachedCell(sims, loop, cfg, audit);
        for (std::size_t v = 0; v < variants.size(); ++v)
            rates[v][i] = cell[v].result.issueRate();
    });
    return rates;
}

SweepMetrics
parallelPerLoopMetrics(const SimFactory &factory,
                       const std::vector<int> &loops,
                       const MachineConfig &cfg, unsigned jobs)
{
    SweepMetrics out;
    out.rates.resize(loops.size());
    std::vector<MetricsRegistry> cells(loops.size());
    // One flag per cell, set as the body's last step: after an
    // interrupted sweep (core/shutdown.hh) the merge below can count
    // how many cells actually completed.
    std::vector<char> done(loops.size(), 0);
    const bool audit = auditRequested();
    runLoopGrid(loops, cfg, jobs, [&](std::size_t i) {
        const DecodedTrace &trace =
            TraceLibrary::instance().decoded(loops[i], cfg);
        auto sim = factory(cfg);
        PipeTraceRecorder recorder(trace.size());
        const SimResult result =
            runWithSinks(*sim, trace, &recorder, audit);
        out.rates[i] = result.issueRate();
        populateRunMetrics(cells[i], trace, recorder, result,
                           *sim);
        cells[i]
            .gauge("rate.LL" + std::to_string(loops[i]))
            .set(result.issueRate());
        done[i] = 1;
    });
    // Serial index-order merge: deterministic regardless of the
    // worker schedule.
    out.metrics.setLabel("config", cfg.name());
    std::size_t completed = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (done[i])
            ++completed;
        out.metrics.merge(cells[i]);
    }
    out.metrics.gauge("sweep.cells_total")
        .set(double(loops.size()));
    out.metrics.gauge("sweep.cells_completed").set(double(completed));
    if (shutdownRequested())
        out.metrics.setLabel("interrupted",
                             shutdownSignal() == SIGTERM ? "SIGTERM"
                                                         : "SIGINT");
    ResultCache::instance().appendMetrics(out.metrics);
    return out;
}

} // namespace mfusim
