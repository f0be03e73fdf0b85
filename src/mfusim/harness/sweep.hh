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
#include <memory>
#include <vector>

#include "mfusim/harness/experiment.hh"
#include "mfusim/harness/spec_parse.hh"
#include "mfusim/obs/metrics.hh"

namespace mfusim
{

/**
 * The worker count runGrid() uses when none is given: the last
 * setDefaultSweepJobs() value, else the MFUSIM_JOBS environment
 * variable, else std::thread::hardware_concurrency() (at least 1).
 * @throws ConfigError naming MFUSIM_JOBS if it is set to anything
 *         but decimal digits within 32 bits.
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

/** One simulator's result from runCachedCell(). */
struct CachedCellResult
{
    SimResult result;
    bool cached = false;    //!< served by ResultCache::probe()
};

/**
 * The one path from a cell to a cached result: time loop @p loop
 * under @p cfg on every simulator in @p sims.  A simulator whose
 * cacheKey() is not empty is first probed in the process-wide
 * ResultCache (serve/result_cache.hh) under the trace key
 * "LL" + loop.name.  The simulators that miss run over the loop's
 * decoded trace, each through runAudited() when @p audited, else
 * together as one runBatch() (sim/batched.hh); every computed
 * result with a cache identity is then stored.  The trace is built
 * only on a miss, so a cell served from the cache decodes nothing:
 * a library loop takes the TraceLibrary's view, an unrolled or
 * vectorized loop decodes its own body.
 *
 * The cache counts a hit per result it serves and a miss per result
 * stored.  If any simulation throws, the exception propagates and
 * nothing is stored or counted.
 *
 * @return one result per simulator, in @p sims order.
 */
std::vector<CachedCellResult>
runCachedCell(const std::vector<std::unique_ptr<Simulator>> &sims,
              const LoopSpec &loop, const MachineConfig &cfg,
              bool audited);

/**
 * Parallel perLoopRates(): one grid cell per loop, each timing the
 * library's cached pre-decoded trace of (loop, cfg) on a fresh
 * simulator from @p factory.  Results are in @p loops order,
 * bit-identical to the serial loop.
 *
 * Each cell runs through runCachedCell(), so a repeated (machine,
 * loop, config, audit) cell within one process is served from the
 * ResultCache without re-simulating.
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
 * the same loops and config in one call.  One grid cell per loop,
 * each one runCachedCell() over every variant, so one call fills
 * many cache entries.  Results are bit-identical to per-variant
 * parallelPerLoopRates().
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
 * are merged serially in @p loops order.  Under auditRequested() an
 * Auditor checks each cell's recorded schedule, and a violation
 * fails the cell with an AuditError.
 */
SweepMetrics parallelPerLoopMetrics(const SimFactory &factory,
                                    const std::vector<int> &loops,
                                    const MachineConfig &cfg,
                                    unsigned jobs = 0);

} // namespace mfusim

#endif // MFUSIM_HARNESS_SWEEP_HH
