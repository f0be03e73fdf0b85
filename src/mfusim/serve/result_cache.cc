/**
 * @file
 * ResultCache implementation (16-way lock-sharded).
 */

#include "mfusim/serve/result_cache.hh"

#include <functional>

#include "mfusim/sim/steady_state.hh"

namespace mfusim
{

ResultCache &
ResultCache::instance()
{
    static ResultCache cache;
    return cache;
}

ResultCache::Shard &
ResultCache::shardFor(const std::string &key) const
{
    // kShardCount is a power of two; std::hash of the composed key
    // (which embeds the machine key, trace and config name) spreads
    // a sweep's key population evenly across shards.
    return shards_[std::hash<std::string>{}(key) &
                   (kShardCount - 1)];
}

std::string
ResultCache::composeKey(const std::string &machineKey,
                        const std::string &traceKey,
                        const MachineConfig &cfg, bool audited) const
{
    // '\n' never occurs in any component, so the composition is
    // injective.  The steady-state mode cannot change cycles or
    // stalls (bit-identity is tested), but it does change the
    // steadyOpsSkipped diagnostic, so it is part of the key to keep
    // cached diagnostics honest.
    //
    // version_ is read unlocked: setVersion() happens once, before
    // serving starts (same contract as attachPersist()).
    return machineKey + "\n" + traceKey + "\n" + cfg.name() + "\n" +
        (audited ? "audited" : "plain") + "\n" +
        (steadyStateEnabled() ? "steady" : "exact") + "\n" + version_;
}

bool
ResultCache::probe(const std::string &machineKey,
                   const std::string &traceKey,
                   const MachineConfig &cfg, bool audited,
                   SimResult *out)
{
    const std::string key =
        composeKey(machineKey, traceKey, cfg, audited);
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it == shard.entries.end())
        return false;
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    if (out)
        *out = it->second;
    return true;
}

void
ResultCache::store(const std::string &machineKey,
                   const std::string &traceKey,
                   const MachineConfig &cfg, bool audited,
                   const SimResult &result)
{
    const std::string key =
        composeKey(machineKey, traceKey, cfg, audited);
    bool inserted = false;
    {
        Shard &shard = shardFor(key);
        shard.misses.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(shard.mutex);
        inserted = shard.entries.emplace(key, result).second;
    }
    // Journal outside the shard mutex: disk latency (and the
    // periodic fsync) must never block concurrent lookups.  Lock
    // order is journal -> shard (the compaction snapshot takes shard
    // mutexes inside the journal mutex), so no shard mutex is ever
    // held across a journal call.  The journal keeps insertion order
    // because this append happens post-insert on the inserting
    // thread, exactly as in the unsharded cache.
    if (inserted && persist_ != nullptr) {
        persist_->append(key, result);
        persist_->maybeCompact([this] {
            std::vector<std::pair<std::string, SimResult>> live;
            for (Shard &shard : shards_) {
                std::lock_guard<std::mutex> lock(shard.mutex);
                for (const auto &entry : shard.entries)
                    live.push_back(entry);
            }
            return live;
        });
    }
}

PersistLoadStats
ResultCache::attachPersist(std::unique_ptr<PersistentCache> persist)
{
    std::string version;
    {
        std::lock_guard<std::mutex> lock(metaMutex_);
        version = version_;
    }
    PersistLoadStats load;
    std::unordered_map<std::string, SimResult> warm;
    try {
        load = persist->open(
            version, [&warm](std::string key, const SimResult &r) {
                warm.emplace(std::move(key), r);
            });
    } catch (const std::bad_alloc &) {
        // Warm-load starved: start cold, keep the journal attached.
        // Recovered-so-far entries are dropped wholesale — a partial
        // warm set is fine, but the simple invariant ("warm iff the
        // load succeeded") is easier to reason about in a crash
        // report.
        warm.clear();
        load = PersistLoadStats{};
        load.loadFailed = true;
    }
    for (auto &entry : warm) {
        Shard &shard = shardFor(entry.first);
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.entries.emplace(entry.first, entry.second);
    }
    {
        std::lock_guard<std::mutex> lock(metaMutex_);
        persistLoad_ = load;
    }
    persist_ = std::move(persist);
    return load;
}

void
ResultCache::detachPersist()
{
    persist_.reset();
    std::lock_guard<std::mutex> lock(metaMutex_);
    persistLoad_ = PersistLoadStats{};
}

void
ResultCache::flushPersist()
{
    if (persist_ != nullptr)
        persist_->flush();
}

PersistLoadStats
ResultCache::persistLoadStats() const
{
    std::lock_guard<std::mutex> lock(metaMutex_);
    return persistLoad_;
}

ResultCacheStats
ResultCache::stats() const
{
    // Per-shard counters aggregate here, so the exported Prometheus
    // names (and their meaning) are unchanged from the unsharded
    // cache.
    ResultCacheStats stats;
    for (const Shard &shard : shards_) {
        stats.hits += shard.hits.load(std::memory_order_relaxed);
        stats.misses += shard.misses.load(std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(shard.mutex);
        stats.entries += shard.entries.size();
    }
    return stats;
}

void
ResultCache::appendMetrics(MetricsRegistry &metrics) const
{
    const ResultCacheStats s = stats();
    metrics.counter("result_cache.hits").add(s.hits);
    metrics.counter("result_cache.misses").add(s.misses);
    metrics.gauge("result_cache.entries").set(double(s.entries));
    if (persist_ == nullptr)
        return;
    const PersistLoadStats load = persistLoadStats();
    const PersistStats p = persist_->stats();
    metrics.counter("result_cache.persist.recovered")
        .add(load.recovered);
    metrics.counter("result_cache.persist.discarded")
        .add(load.discardedCorrupt + load.discardedVersion);
    metrics.counter("result_cache.persist.truncated_bytes")
        .add(load.truncatedBytes);
    metrics.counter("result_cache.persist.load_failures")
        .add(load.loadFailed ? 1 : 0);
    metrics.counter("result_cache.persist.appends").add(p.appends);
    metrics.counter("result_cache.persist.append_errors")
        .add(p.appendErrors);
    metrics.counter("result_cache.persist.compactions")
        .add(p.compactions);
    metrics.gauge("result_cache.persist.file_bytes")
        .set(double(p.fileBytes));
}

void
ResultCache::setVersion(const std::string &version)
{
    std::lock_guard<std::mutex> lock(metaMutex_);
    version_ = version;
}

void
ResultCache::clear()
{
    for (Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.entries.clear();
        shard.hits.store(0, std::memory_order_relaxed);
        shard.misses.store(0, std::memory_order_relaxed);
    }
}

} // namespace mfusim
