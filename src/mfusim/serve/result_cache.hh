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
 * Two calls make up the whole lookup protocol, and one harness
 * function, runCachedCell() (harness/sweep.hh), makes them for every
 * simulated cell: probe() serves a present cell and counts a hit,
 * store() inserts a simulated one and counts a miss.  So hits are
 * cells served and misses are cells simulated and stored; a probe
 * that finds nothing counts nothing (the serve reactor's fast path
 * probes, and a worker then simulates and stores the same cell), and
 * a cell whose simulation throws is neither stored nor counted.
 *
 * Storage: each cell is one packed record (see Cell in
 * result_cache.cc), about a fifth of the heap that an unordered_map
 * node holding a composed key string and a SimResult takes:
 *
 *   header:  interned machine key | u32 hash | u16 body size
 *            | u8 CLOCK reference bit
 *   key:     varint traceLen | trace | varint cfgLen | cfg name
 *            | u8 mode (bit 0 audited, bit 1 steady state)
 *   value:   varint presence mask | one varint per non-zero field
 *            (instructions, cycles, each StallCause counter,
 *            steadyOpsSkipped, squashes, wrongPathOps; hasStalls is
 *            a mask bit with no payload)
 *
 * The machine key and the code version are interned once per shard
 * as "<machineKey>\n<version>" and shared, by reference count, by
 * every record of that machine; the shard is chosen by the machine
 * key's hash, so each machine's text is held once.  The key part is
 * length-prefixed, so two keys that differ in any component encode
 * differently.
 *
 * Bounded: every shard holds at most budgetBytes / kShardCount
 * resident bytes (records, interned keys and its index).  A store
 * that would pass that evicts cells by CLOCK: a hand sweeps the
 * shard's index, clears the reference bit that a probe hit set, and
 * evicts the first cell whose bit is already clear.  The default
 * budget, kDefaultBudgetBytes, holds every cell of a 4000-body
 * design-space sweep with room to spare.
 *
 * Thread safety: the cache is sharded 16 ways by machine-key hash —
 * each shard has its own mutex and hit/miss/eviction counters
 * (cache-line separated), so concurrent cache-hit requests on
 * different machines never contend on a single lock even at full
 * worker-pool parallelism.  No lock is held between a probe() and
 * its store(), so concurrent misses simulate in parallel.  Two
 * racing misses on the same key both simulate — results are
 * identical by construction, the second store keeps the first value.
 *
 * Persistence: attachPersist() puts a crash-safe on-disk journal
 * (persist_cache.hh) behind the cache.  Every newly inserted cell is
 * appended to the journal *after* the shard mutex is released (disk
 * latency never blocks lookups), and a restarted daemon warm-loads
 * the journal straight into the shards, up to the budget, so it
 * answers warm and bit-identical from its first request.  Evicted
 * cells count as dead journal bytes, and compaction rewrites the
 * journal to the resident set, one shard at a time.  Journal I/O
 * failures degrade to in-memory behavior with counters raised —
 * persistence is an accelerator, never a correctness dependency.
 */

#ifndef MFUSIM_SERVE_RESULT_CACHE_HH
#define MFUSIM_SERVE_RESULT_CACHE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

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
    std::uint64_t residentBytes = 0; //!< records, interned keys, index
    std::uint64_t evictions = 0;     //!< cells dropped by CLOCK
};

/** The process-wide memo of completed simulation cells. */
class ResultCache
{
  public:
    /** The instance shared by serve workers and sweep cells. */
    static ResultCache &instance();

    /**
     * Resident bytes the whole cache may hold, split evenly over the
     * shards.  A design-space sweep's cell accounts for about 54 B
     * (63 B of heap with the allocator's rounding; ResultCacheMemory
     * pins it at 100 B or less), so the ~280k cells of a 4000-body
     * sweep take 15 MB and 32 MiB holds them with room to spare.
     */
    static constexpr std::size_t kDefaultBudgetBytes = 32u << 20;

    ResultCache() : ResultCache(kDefaultBudgetBytes) {}
    /** A cache with a budget other than the default (tests). */
    explicit ResultCache(std::size_t budgetBytes);
    ~ResultCache();
    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /**
     * Copy the cached result of the composed key into @p out (if not
     * null) and count one hit, or return false and count nothing.
     * @p machineKey must be a Simulator::cacheKey() (callers skip the
     * cache when that is empty); @p traceKey identifies the trace
     * (canonical loops use "LL<spec>", replayed files their trace
     * name).
     */
    bool probe(const std::string &machineKey,
               const std::string &traceKey, const MachineConfig &cfg,
               bool audited, SimResult *out);

    /**
     * Insert one simulated cell and count one miss: the cell was not
     * served by probe().  Racing stores of the same key keep the
     * first value (identical by construction) and count a miss each.
     * A cell that does not fit evicts others from its shard; one
     * larger than a whole shard's budget is not kept.
     */
    void store(const std::string &machineKey,
               const std::string &traceKey, const MachineConfig &cfg,
               bool audited, const SimResult &result);

    ResultCacheStats stats() const;

    /**
     * Export stats into @p metrics as the counters
     * "result_cache.hits" / "result_cache.misses" /
     * "result_cache.evictions" and the gauges "result_cache.entries",
     * "result_cache.resident_bytes" and "result_cache.budget_bytes"
     * (cumulative process-lifetime counters, so a Prometheus scrape
     * sees proper monotone counters).
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
     * string, and warm-load the recovered cells straight into the
     * shards (a journal larger than the budget evicts as it loads).  Call before
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

    /** Number of lock shards (power of two; indexed by machine hash). */
    static constexpr std::size_t kShardCount = 16;

  private:
    struct Cell;
    /** An interned "<machineKey>\n<version>" and its record count. */
    using Machine = std::pair<const std::string, std::uint32_t>;

    /**
     * One lock shard: an open-addressed (linear probing) index of
     * packed records, which CLOCK's hand also sweeps, and the
     * interned machine keys they share.  Cache-line aligned so two
     * shards' mutexes and counters never false-share; the hit path
     * of a request touches exactly one shard.
     */
    struct alignas(64) Shard
    {
        mutable std::mutex mutex;
        std::vector<Cell *> slots;  //!< power of two; nullptr = empty
        std::size_t count = 0;
        std::size_t hand = 0;       //!< CLOCK hand, a slot index
        std::size_t residentBytes = 0;
        std::unordered_map<std::string, std::uint32_t> machines;
        // Atomics, so stats() reads them without the shard lock.
        mutable std::atomic<std::uint64_t> hits{ 0 };
        mutable std::atomic<std::uint64_t> misses{ 0 };
        mutable std::atomic<std::uint64_t> evictions{ 0 };

        Cell *find(std::uint32_t hash, std::string_view machineKey,
                   std::string_view version,
                   std::string_view key) const;
        /**
         * Insert a record whose body starts with a @p keyBytes key
         * part, evicting to fit in @p budget and adding the journal
         * bytes of what it evicts to @p deadBytes.  False if the key
         * is present or the record does not fit in an empty shard.
         */
        bool insert(std::uint32_t hash, std::string_view machineKey,
                    std::string_view version, std::string_view body,
                    std::size_t keyBytes, std::size_t budget,
                    std::uint64_t *deadBytes);
        void evictOne(std::uint64_t *deadBytes);
        void eraseSlot(std::size_t slot);
        void release(Cell *cell);
        void drop();
    };

    std::string composeKey(const std::string &machineKey,
                           const std::string &traceKey,
                           const MachineConfig &cfg,
                           bool audited) const;

    /**
     * Encode one cell and insert it into the shard of
     * @p machineHash (evicting to fit); false if not kept.
     */
    bool insertCell(std::uint64_t machineHash,
                    std::string_view machineKey,
                    std::string_view version, std::string_view trace,
                    std::string_view cfg, bool audited, bool steady,
                    const SimResult &result, std::uint64_t *deadBytes);

    /** Insert one recovered journal record; false if not kept. */
    bool warmInsert(const std::string &composedKey,
                    const SimResult &result, std::uint64_t *deadBytes);

    /** Stream every resident cell, one shard snapshot at a time. */
    void forEachResident(const PersistentCache::RecordSink &sink);

    const std::size_t shardBudget_;
    mutable Shard shards_[kShardCount];
    /** Guards version_ and persistLoad_ (never on the hit path). */
    mutable std::mutex metaMutex_;
    std::string version_ = "in-process";
    std::unique_ptr<PersistentCache> persist_;
    PersistLoadStats persistLoad_;
};

} // namespace mfusim

#endif // MFUSIM_SERVE_RESULT_CACHE_HH
