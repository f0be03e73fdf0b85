/**
 * @file
 * Deterministic simulation result cache.
 *
 * Every mfusim timing run is a pure function of (machine
 * organization, machine configuration, trace, audit/steady-state
 * mode) — the simulators share no hidden state and use no
 * randomness.  That makes results perfectly memoizable: the serve
 * daemon's common case is a user iterating on one parameter of a
 * grid whose other cells are unchanged, and a batch `rate all` or
 * table bench re-times the same (machine, loop, config) cell under
 * several reporting views.  The ResultCache turns every repeat into
 * a hash lookup.
 *
 * Keys compose the simulator's cacheKey() — a canonical serialization
 * of every organization knob (see Simulator::cacheKey()) — with the
 * trace identity, the MachineConfig name, the audit and steady-state
 * modes, and a code-version string (the git SHA for daemon builds),
 * so a key can never alias two runs that could differ in any output
 * bit.  Values are complete SimResults, so hits reproduce
 * instructions, cycles, per-cause stall counters and steady-state
 * telemetry bit-identically.
 *
 * Thread safety: the map is sharded 16 ways by key hash — each shard
 * has its own mutex and hit/miss counters (cache-line separated), so
 * concurrent cache-hit requests on different keys never contend on a
 * single lock even at full worker-pool parallelism.  getOrCompute()
 * drops the shard lock around the compute so concurrent misses
 * simulate in parallel.  Two racing misses on the same key both
 * simulate — results are identical by construction, the second
 * store is a no-op.
 *
 * Persistence: attachPersist() puts a crash-safe on-disk journal
 * (persist_cache.hh) behind the map.  Every newly inserted entry is
 * appended to the journal *after* the shard mutex is released (disk
 * latency never blocks lookups), and a restarted daemon warm-loads
 * the journal so it answers warm and bit-identical from its first
 * request.  Journal I/O failures degrade to in-memory behavior with
 * counters raised — persistence is an accelerator, never a
 * correctness dependency.
 */

#ifndef MFUSIM_SERVE_RESULT_CACHE_HH
#define MFUSIM_SERVE_RESULT_CACHE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "mfusim/core/machine_config.hh"
#include "mfusim/obs/metrics.hh"
#include "mfusim/serve/persist_cache.hh"
#include "mfusim/sim/simulator.hh"

namespace mfusim
{

/** Point-in-time cache statistics (aggregated across shards). */
struct ResultCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t entries = 0;
};

/** The process-wide memo of completed simulation cells. */
class ResultCache
{
  public:
    /** The instance shared by serve workers and sweep cells. */
    static ResultCache &instance();

    ResultCache() = default;
    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /**
     * Return the cached result for the composed key, or run
     * @p compute, store its result, and return it.  @p machineKey
     * must be a Simulator::cacheKey() (callers skip the cache when
     * that is empty); @p traceKey identifies the trace (canonical
     * loops use "LL<spec>", replayed files their trace name).
     * Counts one hit or one miss.  If @p compute throws, nothing is
     * stored and the exception propagates (a failed cell is
     * recomputed — and re-diagnosed — on every request).
     *
     * @param wasHit optional out-param: true iff served from cache.
     */
    SimResult getOrCompute(const std::string &machineKey,
                           const std::string &traceKey,
                           const MachineConfig &cfg, bool audited,
                           const std::function<SimResult()> &compute,
                           bool *wasHit = nullptr);

    /** Peek without computing; does not count a hit or miss. */
    bool lookup(const std::string &machineKey,
                const std::string &traceKey,
                const MachineConfig &cfg, bool audited,
                SimResult *out) const;

    /**
     * lookup() that counts one hit or one miss.  A batched sweep
     * decouples the lookup from the store — one runBatch() computes
     * many cells at once — so it cannot use getOrCompute()'s
     * single-cell compute callback.
     */
    bool probe(const std::string &machineKey,
               const std::string &traceKey, const MachineConfig &cfg,
               bool audited, SimResult *out);

    /**
     * lookup() that counts a hit when the cell is present and counts
     * NOTHING when it is not.  The serve reactor's fast path probes
     * with it: a hit is served (and counted) inline, while a miss
     * falls through to a worker whose getOrCompute() records the one
     * authoritative miss — probe() here would double-count it.
     */
    bool probeHit(const std::string &machineKey,
                  const std::string &traceKey,
                  const MachineConfig &cfg, bool audited,
                  SimResult *out);

    /**
     * Insert one completed cell (one batched simulate, many fills).
     * Counts neither a hit nor a miss; racing stores of the same key
     * keep the first value (identical by construction).
     */
    void store(const std::string &machineKey,
               const std::string &traceKey, const MachineConfig &cfg,
               bool audited, const SimResult &result);

    ResultCacheStats stats() const;

    /**
     * Export stats into @p metrics as the counters
     * "result_cache.hits" / "result_cache.misses" and the gauge
     * "result_cache.entries" (cumulative process-lifetime values, so
     * a Prometheus scrape sees proper monotone counters).
     */
    void appendMetrics(MetricsRegistry &metrics) const;

    /**
     * The code-version component of every key.  Defaults to
     * "in-process" (an in-memory cache cannot span two code
     * versions); the CLI stamps the build's git SHA so exported
     * diagnostics name the producing build.
     */
    void setVersion(const std::string &version);

    /**
     * Attach @p persist, open its journal under the current version
     * string, and warm-load every recovered entry.  Call before
     * serving starts (attachment itself is not synchronized against
     * concurrent stores).  If the warm-load aborts (allocation
     * failure — see the persist.load fault point), the cache starts
     * cold with loadFailed set; the journal stays attached and
     * usable for appends either way.
     */
    PersistLoadStats
    attachPersist(std::unique_ptr<PersistentCache> persist);

    /** Detach (and close) the journal, if any (tests, shutdown). */
    void detachPersist();

    /** fsync pending journal appends (drain path); no-op unattached. */
    void flushPersist();

    /** The attached journal, or nullptr. */
    const PersistentCache *persist() const { return persist_.get(); }

    /** Stats of the last attachPersist() warm-load. */
    PersistLoadStats persistLoadStats() const;

    /** Drop all entries and zero the stats (tests). */
    void clear();

    /** Number of lock shards (power of two; indexed by key hash). */
    static constexpr std::size_t kShardCount = 16;

  private:
    /**
     * One lock shard.  Cache-line aligned so two shards' mutexes and
     * counters never false-share; the hit path of a request touches
     * exactly one shard.
     */
    struct alignas(64) Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<std::string, SimResult> entries;
        // Atomics, not mutex-guarded fields: getOrCompute() counts a
        // miss after dropping the shard lock.
        mutable std::atomic<std::uint64_t> hits{ 0 };
        mutable std::atomic<std::uint64_t> misses{ 0 };
    };

    std::string composeKey(const std::string &machineKey,
                           const std::string &traceKey,
                           const MachineConfig &cfg,
                           bool audited) const;

    Shard &shardFor(const std::string &key) const;

    /** Insert under the shard mutex; journal the entry if new. */
    void insertAndPersist(const std::string &key,
                          const SimResult &result);

    mutable Shard shards_[kShardCount];
    /** Guards version_ and persistLoad_ (never on the hit path). */
    mutable std::mutex metaMutex_;
    std::string version_ = "in-process";
    std::unique_ptr<PersistentCache> persist_;
    PersistLoadStats persistLoad_;
};

} // namespace mfusim

#endif // MFUSIM_SERVE_RESULT_CACHE_HH
