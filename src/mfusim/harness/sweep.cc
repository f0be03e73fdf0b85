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
#include <thread>

#include "mfusim/core/error.hh"
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
        const long parsed = std::strtol(env, nullptr, 10);
        if (parsed > 0)
            return unsigned(parsed);
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

std::vector<std::vector<double>>
batchedPerLoopRates(const std::vector<SimFactory> &variants,
                    const std::vector<int> &loops,
                    const MachineConfig &cfg, unsigned jobs)
{
    std::vector<std::vector<double>> rates(
        variants.size(), std::vector<double>(loops.size()));
    const bool audit = auditRequested();
    runLoopGrid(loops, cfg, jobs, [&](std::size_t i) {
        const DecodedTrace &trace =
            TraceLibrary::instance().decoded(loops[i], cfg);
        const std::string traceKey =
            "LL" + std::to_string(loops[i]);
        ResultCache &cache = ResultCache::instance();

        // Cells whose simulator states a complete cache identity
        // are memoized process-wide (serve/result_cache.hh):
        // re-sweeping the same (machine, loop, config) cell — a
        // table bench revisiting a column, `rate all` re-run by
        // the serve daemon — skips the simulation entirely.
        // The remaining variants run over the trace in one batch,
        // then every computed cell is stored back.
        std::vector<std::unique_ptr<Simulator>> sims(
            variants.size());
        std::vector<std::string> keys(variants.size());
        std::vector<std::size_t> missed;
        for (std::size_t v = 0; v < variants.size(); ++v) {
            sims[v] = variants[v](cfg);
            keys[v] = sims[v]->cacheKey();
            SimResult cached;
            if (!keys[v].empty() &&
                cache.probe(keys[v], traceKey, cfg, audit,
                            &cached)) {
                rates[v][i] = cached.issueRate();
                continue;
            }
            missed.push_back(v);
        }
        if (audit) {
            // Audited cells need the complete per-op event
            // stream: scalar path, as before.
            for (const std::size_t v : missed) {
                const SimResult result =
                    runAudited(*sims[v], trace);
                if (!keys[v].empty())
                    cache.store(keys[v], traceKey, cfg, audit,
                                result);
                rates[v][i] = result.issueRate();
            }
            return;
        }
        std::vector<BatchLane> lanes;
        lanes.reserve(missed.size());
        for (const std::size_t v : missed)
            lanes.push_back({ sims[v].get(), &trace });
        const BatchOutcome out = runBatch(lanes);
        for (std::size_t m = 0; m < missed.size(); ++m) {
            const std::size_t v = missed[m];
            if (!keys[v].empty())
                cache.store(keys[v], traceKey, cfg, audit,
                            out.results[m]);
            rates[v][i] = out.results[m].issueRate();
        }
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
    runLoopGrid(loops, cfg, jobs, [&](std::size_t i) {
        const DecodedTrace &trace =
            TraceLibrary::instance().decoded(loops[i], cfg);
        auto sim = factory(cfg);
        PipeTraceRecorder recorder;
        sim->attachAudit(&recorder);
        const SimResult result = sim->run(trace);
        sim->attachAudit(nullptr);
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
