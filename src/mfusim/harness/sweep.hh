/**
 * @file
 * Deterministic parallel sweep runner.
 *
 * Every paper table is a grid of independent cells: (simulator
 * organization) x (machine configuration) x (loop).  Each cell is a
 * pure function of its inputs, so the grid can be evaluated by a
 * worker pool in any order — provided the *output* is assembled in
 * index order, the printed tables are bit-identical to a serial run.
 *
 * runGrid() is that primitive: it runs `body(i)` for every cell
 * index i on a pool of threads, with each body writing its result
 * into its own pre-sized slot.  Determinism is by construction: no
 * cell reads another cell's output, and the caller prints the slots
 * serially afterwards.
 *
 * The worker count defaults to the MFUSIM_JOBS environment variable,
 * falling back to the hardware concurrency; `mfusim --jobs N` and
 * tests override it per process with setDefaultSweepJobs().
 */

#ifndef MFUSIM_HARNESS_SWEEP_HH
#define MFUSIM_HARNESS_SWEEP_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "mfusim/harness/experiment.hh"
#include "mfusim/obs/metrics.hh"

namespace mfusim
{

/**
 * The worker count runGrid() uses when none is given: the last
 * setDefaultSweepJobs() value, else the MFUSIM_JOBS environment
 * variable, else std::thread::hardware_concurrency() (at least 1).
 */
unsigned defaultSweepJobs();

/** Override the process-wide default worker count (0 = reset). */
void setDefaultSweepJobs(unsigned jobs);

/** What runGrid() does with the cells left after a body throws. */
enum class GridFailurePolicy
{
    /**
     * Keep evaluating every remaining cell; all failures are
     * aggregated.  The default: an overnight 500-cell sweep reports
     * every bad cell, not just whichever one a worker hit first.
     */
    kContinue,
    /** Drain the remaining cells as soon as any body throws. */
    kStopOnFailure,
};

/**
 * Evaluate @p body(i) for every i in [0, cells) on a pool of
 * @p jobs worker threads (0 = defaultSweepJobs()).
 *
 * Work is handed out by an atomic counter, so the *execution* order
 * is nondeterministic; callers must make each body write only to its
 * own index's result slot, which makes the *results* deterministic.
 * With one job (or one cell, or when called from inside a runGrid
 * worker) the bodies run inline on the calling thread.
 *
 * Failure handling: exceptions thrown by bodies are collected — every
 * one of them under GridFailurePolicy::kContinue, the ones already
 * caught when the grid drains under kStopOnFailure — and rethrown on
 * the calling thread as one SweepError listing each failed cell index
 * with its message, sorted by cell.
 *
 * Shutdown: once shutdownRequested() (core/shutdown.hh) is set, no
 * further cells are started; in-flight cells complete.  Callers that
 * installed the handler check the flag afterwards and flush partial
 * results.  Without the handler installed the flag never fires and
 * behaviour is unchanged.
 *
 * @throws SweepError (a std::runtime_error) if any body threw.
 */
void runGrid(std::size_t cells,
             const std::function<void(std::size_t)> &body,
             unsigned jobs = 0,
             GridFailurePolicy policy = GridFailurePolicy::kContinue);

/**
 * Parallel perLoopRates(): one grid cell per loop, each timing the
 * library's cached pre-decoded trace of (loop, cfg) on a fresh
 * simulator from @p factory.  Results are in @p loops order,
 * bit-identical to the serial loop.
 *
 * Cells whose simulator exposes a cacheKey() identity are memoized
 * in the process-wide ResultCache (serve/result_cache.hh): a
 * repeated (machine, loop, config, audit) cell within one process is
 * served from the cache without re-simulating.
 *
 * When auditRequested() is set (MFUSIM_AUDIT=1 or --audit), every
 * cell runs under a SimAudit legality check via runAudited(); rates
 * are unchanged, but an invariant violation fails the cell with an
 * AuditError.
 *
 * @throws SweepError naming each failed loop as
 *         "loop <id> (<config>): <message>"; all cells are always
 *         attempted.
 */
std::vector<double> parallelPerLoopRates(const SimFactory &factory,
                                         const std::vector<int> &loops,
                                         const MachineConfig &cfg,
                                         unsigned jobs = 0);

/**
 * Batched parallelPerLoopRates(): many machine variants swept over
 * the same loops and config in one call.  One grid cell per loop;
 * within a cell the variants that miss the ResultCache run over the
 * loop's decoded trace as one runBatch() (sim/batched.hh), each lane
 * alone through its simulator's run(), and every computed cell is
 * stored back, so one call fills many cache entries.  Results are
 * bit-identical to per-variant parallelPerLoopRates().
 *
 * Returns rates[variant][loop index].  Audit and failure reporting
 * as in parallelPerLoopRates(); a failing variant fails its whole
 * loop cell.
 */
std::vector<std::vector<double>>
batchedPerLoopRates(const std::vector<SimFactory> &variants,
                    const std::vector<int> &loops,
                    const MachineConfig &cfg, unsigned jobs = 0);

/** Result of an instrumented sweep: rates plus merged metrics. */
struct SweepMetrics
{
    /** Issue rate per loop, in @p loops order. */
    std::vector<double> rates;
    /**
     * All per-cell registries merged in loop order: counters and
     * histograms aggregate across the sweep, per-loop rates appear
     * as "rate.LL<id>" gauges.  Deterministic for a given loop list
     * regardless of the worker count.
     */
    MetricsRegistry metrics;
};

/**
 * parallelPerLoopRates() with full observability: every cell runs
 * with a PipeTraceRecorder attached (which disables the steady-state
 * fast path, so cell metrics are cycle-exact) and populates its own
 * MetricsRegistry via populateRunMetrics(); the per-cell registries
 * are merged serially in @p loops order.
 */
SweepMetrics parallelPerLoopMetrics(const SimFactory &factory,
                                    const std::vector<int> &loops,
                                    const MachineConfig &cfg,
                                    unsigned jobs = 0);

} // namespace mfusim

#endif // MFUSIM_HARNESS_SWEEP_HH
