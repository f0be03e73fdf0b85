/**
 * @file
 * ResultCache implementation: packed records in 16 lock shards, each
 * bounded by a byte budget and evicted by CLOCK.
 */

#include "mfusim/serve/result_cache.hh"

#include <cstring>
#include <functional>
#include <limits>
#include <new>
#include <string_view>

#include "mfusim/sim/steady_state.hh"

namespace mfusim
{

namespace
{

constexpr std::uint8_t kAuditedMode = 1;
constexpr std::uint8_t kSteadyMode = 2;

constexpr std::string_view
auditWord(bool audited)
{
    return audited ? "audited" : "plain";
}

constexpr std::string_view
steadyWord(bool steady)
{
    return steady ? "steady" : "exact";
}

// Presence-mask bits of a record's value, one per SimResult field.
// hasStalls is a bit with no payload; every other set bit is
// followed, in bit order, by that field's varint.
constexpr unsigned kStallBit = 2;   // stalls[c] is kStallBit + c
constexpr unsigned kHasStallsBit = kStallBit + kNumStallCauses;
constexpr unsigned kSkippedBit = kHasStallsBit + 1;
constexpr unsigned kSquashesBit = kSkippedBit + 1;
constexpr unsigned kWrongPathBit = kSquashesBit + 1;
constexpr unsigned kValueFields = kWrongPathBit + 1;
static_assert(kValueFields <= 64, "the presence mask is one u64");

void
putVarint(std::string &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(char(std::uint8_t(v) | 0x80));
        v >>= 7;
    }
    out.push_back(char(v));
}

/** Read one varint at @p p and advance past it. */
std::uint64_t
getVarint(const std::uint8_t *&p)
{
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
        const std::uint8_t byte = *p++;
        v |= std::uint64_t(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return v;
    }
}

/**
 * Append a record's key part.  Each string is length-prefixed, so
 * the encoding is prefix-free: equal leading bytes of two encodings
 * mean equal keys.
 */
void
putKey(std::string &out, std::string_view trace, std::string_view cfg,
       bool audited, bool steady)
{
    putVarint(out, trace.size());
    out.append(trace);
    putVarint(out, cfg.size());
    out.append(cfg);
    out.push_back(char((audited ? kAuditedMode : 0) |
                       (steady ? kSteadyMode : 0)));
}

void
putValue(std::string &out, const SimResult &r)
{
    std::uint64_t fields[kValueFields] = {};
    fields[0] = r.instructions;
    fields[1] = r.cycles;
    for (unsigned c = 0; c < kNumStallCauses; ++c)
        fields[kStallBit + c] = r.stalls[c];
    fields[kSkippedBit] = r.steadyOpsSkipped;
    fields[kSquashesBit] = r.squashes;
    fields[kWrongPathBit] = r.wrongPathOps;
    std::uint64_t mask =
        r.hasStalls ? std::uint64_t(1) << kHasStallsBit : 0;
    for (unsigned b = 0; b < kValueFields; ++b)
        if (fields[b] != 0)
            mask |= std::uint64_t(1) << b;
    putVarint(out, mask);
    for (unsigned b = 0; b < kValueFields; ++b)
        if (fields[b] != 0)
            putVarint(out, fields[b]);
}

std::string
composeParts(std::string_view machineKey, std::string_view trace,
             std::string_view cfg, bool audited, bool steady,
             std::string_view version)
{
    // '\n' never occurs in any component, so the composition is
    // injective.
    std::string key;
    key.reserve(machineKey.size() + trace.size() + cfg.size() +
                version.size() + 24);
    key.append(machineKey).push_back('\n');
    key.append(trace).push_back('\n');
    key.append(cfg).push_back('\n');
    key.append(auditWord(audited)).push_back('\n');
    key.append(steadyWord(steady)).push_back('\n');
    key.append(version);
    return key;
}

std::uint64_t
hashOf(std::string_view bytes)
{
    return std::hash<std::string_view>{}(bytes);
}

/** The shard of a machine key: its hash's top bits. */
std::size_t
shardIndex(std::uint64_t machineHash)
{
    return std::size_t(machineHash >> 60) &
        (ResultCache::kShardCount - 1);
}

/** A cell's index hash, from its machine key's and key part's. */
std::uint32_t
cellHash(std::uint64_t machineHash, std::uint64_t keyHash)
{
    const std::uint64_t h =
        machineHash ^ (keyHash * 0x9E3779B97F4A7C15ULL);
    return std::uint32_t(h ^ (h >> 32));
}

/** What an interned machine costs: its map node, text and bucket. */
std::size_t
machineBytes(const std::string &interned)
{
    return sizeof(std::pair<const std::string, std::uint32_t>) +
        3 * sizeof(void *) + interned.size() + 1;
}

/** Slots of the index: linear probing stays at most 3/4 full. */
constexpr std::size_t kMinSlots = 16;

bool
needsGrowth(std::size_t count, std::size_t slots)
{
    return (count + 1) * 4 > slots * 3;
}

} // namespace

/**
 * The header of one packed record; its body (key part, then value;
 * see result_cache.hh) follows in the same heap block, read back
 * through the accessors below.
 */
struct ResultCache::Cell
{
    Machine *machine;           //!< interned "<machineKey>\n<version>"
    std::uint32_t hash;
    std::uint16_t size;         //!< body bytes
    std::uint8_t referenced;    //!< CLOCK's second-chance bit

    /** The decoded key part. */
    struct Key
    {
        std::string_view trace;
        std::string_view cfg;
        bool audited;
        bool steady;
        const std::uint8_t *value;  //!< the value's first byte
    };

    const std::uint8_t *
    body() const
    {
        return reinterpret_cast<const std::uint8_t *>(this + 1);
    }

    std::size_t bytes() const { return sizeof(Cell) + size; }

    Key
    key() const
    {
        const std::uint8_t *p = body();
        Key k;
        const std::size_t traceLen = getVarint(p);
        k.trace = { reinterpret_cast<const char *>(p), traceLen };
        p += traceLen;
        const std::size_t cfgLen = getVarint(p);
        k.cfg = { reinterpret_cast<const char *>(p), cfgLen };
        p += cfgLen;
        k.audited = (*p & kAuditedMode) != 0;
        k.steady = (*p & kSteadyMode) != 0;
        k.value = p + 1;
        return k;
    }

    /** Decode the value that starts at @p p into @p r. */
    static void
    value(const std::uint8_t *p, SimResult *r)
    {
        std::uint64_t mask = getVarint(p);
        std::uint64_t fields[kValueFields] = {};
        for (std::uint64_t m = mask; m != 0; m &= m - 1) {
            const unsigned b = unsigned(__builtin_ctzll(m));
            if (b != kHasStallsBit)
                fields[b] = getVarint(p);
        }
        r->instructions = fields[0];
        r->cycles = fields[1];
        for (unsigned c = 0; c < kNumStallCauses; ++c)
            r->stalls[c] = fields[kStallBit + c];
        r->hasStalls = (mask >> kHasStallsBit) & 1;
        r->steadyOpsSkipped = fields[kSkippedBit];
        r->squashes = fields[kSquashesBit];
        r->wrongPathOps = fields[kWrongPathBit];
    }

    /** The journal's composed key of this cell. */
    std::string
    composedKey() const
    {
        const std::string &interned = machine->first;
        const std::size_t nl = interned.find('\n');
        const Key k = key();
        return composeParts(
            std::string_view(interned).substr(0, nl), k.trace, k.cfg,
            k.audited, k.steady,
            std::string_view(interned).substr(nl + 1));
    }
};

ResultCache &
ResultCache::instance()
{
    static ResultCache cache;
    return cache;
}

ResultCache::ResultCache(std::size_t budgetBytes)
    : shardBudget_(budgetBytes / kShardCount)
{
}

ResultCache::~ResultCache()
{
    for (Shard &shard : shards_)
        shard.drop();
}

ResultCache::Cell *
ResultCache::Shard::find(std::uint32_t hash,
                         std::string_view machineKey,
                         std::string_view version,
                         std::string_view key) const
{
    if (slots.empty())
        return nullptr;
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
        Cell *const cell = slots[i];
        if (cell == nullptr)
            return nullptr;
        if (cell->hash != hash || cell->size < key.size() ||
            std::memcmp(cell->body(), key.data(), key.size()) != 0)
            continue;
        const std::string &interned = cell->machine->first;
        if (interned.size() ==
                machineKey.size() + 1 + version.size() &&
            interned.compare(0, machineKey.size(), machineKey) == 0 &&
            interned.compare(machineKey.size() + 1, version.size(),
                             version) == 0)
            return cell;
    }
}

bool
ResultCache::Shard::insert(std::uint32_t hash,
                           std::string_view machineKey,
                           std::string_view version,
                           std::string_view body, std::size_t keyBytes,
                           std::size_t budget, std::uint64_t *deadBytes)
{
    if (body.size() > std::numeric_limits<std::uint16_t>::max() ||
        find(hash, machineKey, version, body.substr(0, keyBytes)) !=
            nullptr)
        return false;

    std::string name;
    name.reserve(machineKey.size() + 1 + version.size());
    name.append(machineKey).push_back('\n');
    name.append(version);
    const auto [machine, fresh] = machines.try_emplace(std::move(name), 0);
    if (fresh)
        residentBytes += machineBytes(machine->first);
    ++machine->second;  // pinned: the evictions below keep it

    const std::size_t bytes = sizeof(Cell) + body.size();
    const auto needed = [&] {
        const std::size_t grown =
            needsGrowth(count, slots.size())
                ? std::max(kMinSlots, slots.size() * 2) - slots.size()
                : 0;
        return residentBytes + bytes + grown * sizeof(Cell *);
    };
    while (count > 0 && needed() > budget)
        evictOne(deadBytes);
    if (needed() > budget) {
        // Larger than the whole shard: keep nothing.
        if (--machine->second == 0) {
            residentBytes -= machineBytes(machine->first);
            machines.erase(machine);
        }
        return false;
    }

    if (needsGrowth(count, slots.size())) {
        std::vector<Cell *> grown(
            std::max(kMinSlots, slots.size() * 2), nullptr);
        residentBytes += (grown.size() - slots.size()) * sizeof(Cell *);
        const std::size_t mask = grown.size() - 1;
        for (Cell *const cell : slots) {
            if (cell == nullptr)
                continue;
            std::size_t i = cell->hash & mask;
            while (grown[i] != nullptr)
                i = (i + 1) & mask;
            grown[i] = cell;
        }
        slots.swap(grown);
        hand &= mask;
    }

    Cell *const cell = new (::operator new(bytes))
        Cell{ &*machine, hash, std::uint16_t(body.size()), 0 };
    std::memcpy(cell + 1, body.data(), body.size());
    const std::size_t mask = slots.size() - 1;
    std::size_t i = hash & mask;
    while (slots[i] != nullptr)
        i = (i + 1) & mask;
    slots[i] = cell;
    ++count;
    residentBytes += bytes;
    return true;
}

void
ResultCache::Shard::evictOne(std::uint64_t *deadBytes)
{
    // The hand clears reference bits until it meets a cell whose bit
    // is already clear: a cell probed since the hand last passed it
    // gets a second chance.
    const std::size_t mask = slots.size() - 1;
    for (;; hand = (hand + 1) & mask) {
        Cell *const cell = slots[hand];
        if (cell == nullptr)
            continue;
        if (cell->referenced != 0) {
            cell->referenced = 0;
            continue;
        }
        *deadBytes +=
            PersistentCache::recordBytes(cell->composedKey().size());
        // The hand stays: eraseSlot() may shift a later cell here.
        eraseSlot(hand);
        release(cell);
        evictions.fetch_add(1, std::memory_order_relaxed);
        return;
    }
}

void
ResultCache::Shard::eraseSlot(std::size_t hole)
{
    // Backward-shift deletion keeps every probe chain unbroken: a
    // later cell of the run moves into the hole unless its home slot
    // lies cyclically after the hole.
    const std::size_t mask = slots.size() - 1;
    slots[hole] = nullptr;
    for (std::size_t i = (hole + 1) & mask; slots[i] != nullptr;
         i = (i + 1) & mask) {
        const std::size_t home = slots[i]->hash & mask;
        if (((i - home) & mask) >= ((i - hole) & mask)) {
            slots[hole] = slots[i];
            slots[i] = nullptr;
            hole = i;
        }
    }
}

void
ResultCache::Shard::release(Cell *cell)
{
    residentBytes -= cell->bytes();
    Machine *const machine = cell->machine;
    if (--machine->second == 0) {
        residentBytes -= machineBytes(machine->first);
        machines.erase(machines.find(machine->first));
    }
    --count;
    ::operator delete(cell);
}

void
ResultCache::Shard::drop()
{
    for (Cell *const cell : slots)
        if (cell != nullptr)
            ::operator delete(cell);
    std::vector<Cell *>().swap(slots);
    machines.clear();
    count = 0;
    hand = 0;
    residentBytes = 0;
}

std::string
ResultCache::composeKey(const std::string &machineKey,
                        const std::string &traceKey,
                        const MachineConfig &cfg, bool audited) const
{
    // The steady-state mode cannot change cycles or stalls
    // (bit-identity is tested), but it does change the
    // steadyOpsSkipped diagnostic, so it is part of the key to keep
    // cached diagnostics honest.
    //
    // version_ is read unlocked: setVersion() happens once, before
    // serving starts (same contract as attachPersist()).
    return composeParts(machineKey, traceKey, cfg.name(), audited,
                        steadyStateEnabled(), version_);
}

bool
ResultCache::probe(const std::string &machineKey,
                   const std::string &traceKey,
                   const MachineConfig &cfg, bool audited,
                   SimResult *out)
{
    thread_local std::string key;
    key.clear();
    putKey(key, traceKey, cfg.name(), audited, steadyStateEnabled());
    const std::uint64_t machineHash = hashOf(machineKey);
    Shard &shard = shards_[shardIndex(machineHash)];
    const std::uint32_t hash = cellHash(machineHash, hashOf(key));
    std::lock_guard<std::mutex> lock(shard.mutex);
    Cell *const cell = shard.find(hash, machineKey, version_, key);
    if (cell == nullptr)
        return false;
    cell->referenced = 1;
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    if (out)
        Cell::value(cell->body() + key.size(), out);
    return true;
}

void
ResultCache::store(const std::string &machineKey,
                   const std::string &traceKey,
                   const MachineConfig &cfg, bool audited,
                   const SimResult &result)
{
    const std::uint64_t machineHash = hashOf(machineKey);
    shards_[shardIndex(machineHash)].misses.fetch_add(
        1, std::memory_order_relaxed);
    std::uint64_t deadBytes = 0;
    const bool inserted =
        insertCell(machineHash, machineKey, version_, traceKey,
                   cfg.name(), audited, steadyStateEnabled(), result,
                   &deadBytes);
    // Journal outside the shard mutex: disk latency (and the
    // periodic fsync) must never block concurrent lookups.  Lock
    // order is journal -> shard (the compaction snapshot takes shard
    // mutexes inside the journal mutex), so no shard mutex is ever
    // held across a journal call.  The journal keeps insertion order
    // because this append happens post-insert on the inserting
    // thread.
    if (persist_ == nullptr)
        return;
    if (deadBytes != 0)
        persist_->noteDead(deadBytes);
    if (inserted) {
        persist_->append(composeKey(machineKey, traceKey, cfg, audited),
                         result);
        persist_->maybeCompact(
            [this](const PersistentCache::RecordSink &sink) {
                forEachResident(sink);
            });
    }
}

bool
ResultCache::insertCell(std::uint64_t machineHash,
                        std::string_view machineKey,
                        std::string_view version, std::string_view trace,
                        std::string_view cfg, bool audited, bool steady,
                        const SimResult &result, std::uint64_t *deadBytes)
{
    thread_local std::string body;
    body.clear();
    putKey(body, trace, cfg, audited, steady);
    const std::size_t keyBytes = body.size();
    putValue(body, result);
    Shard &shard = shards_[shardIndex(machineHash)];
    const std::uint32_t hash = cellHash(
        machineHash, hashOf(std::string_view(body).substr(0, keyBytes)));
    std::lock_guard<std::mutex> lock(shard.mutex);
    return shard.insert(hash, machineKey, version, body, keyBytes,
                        shardBudget_, deadBytes);
}

bool
ResultCache::warmInsert(const std::string &composedKey,
                        const SimResult &result,
                        std::uint64_t *deadBytes)
{
    // machine \n trace \n cfg \n audited|plain \n steady|exact \n
    // version, as composeKey() wrote it.
    std::string_view parts[6];
    std::string_view rest = composedKey;
    for (int i = 0; i < 5; ++i) {
        const std::size_t nl = rest.find('\n');
        if (nl == std::string_view::npos)
            break;
        parts[i] = rest.substr(0, nl);
        rest.remove_prefix(nl + 1);
    }
    parts[5] = rest;
    const bool audited = parts[3] == auditWord(true);
    const bool steady = parts[4] == steadyWord(true);
    const bool kept = (audited || parts[3] == auditWord(false)) &&
        (steady || parts[4] == steadyWord(false)) &&
        parts[5] == version_ &&
        insertCell(hashOf(parts[0]), parts[0], parts[5], parts[1],
                   parts[2], audited, steady, result, deadBytes);
    if (!kept)
        *deadBytes += PersistentCache::recordBytes(composedKey.size());
    return kept;
}

void
ResultCache::forEachResident(const PersistentCache::RecordSink &sink)
{
    // One shard's cells at a time, copied out under its lock and
    // written after it: the snapshot never holds more than a shard.
    std::vector<std::pair<std::string, SimResult>> batch;
    for (Shard &shard : shards_) {
        batch.clear();
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            batch.reserve(shard.count);
            for (const Cell *const cell : shard.slots) {
                if (cell == nullptr)
                    continue;
                SimResult result;
                Cell::value(cell->key().value, &result);
                batch.emplace_back(cell->composedKey(), result);
            }
        }
        for (const auto &[key, result] : batch)
            sink(key, result);
    }
}

PersistLoadStats
ResultCache::attachPersist(std::unique_ptr<PersistentCache> persist)
{
    PersistLoadStats load;
    std::uint64_t deadBytes = 0;
    try {
        std::string version;
        {
            std::lock_guard<std::mutex> lock(metaMutex_);
            version = version_;
        }
        load = persist->open(
            version, [this, &deadBytes](std::string key,
                                        const SimResult &r) {
                warmInsert(key, r, &deadBytes);
            });
    } catch (const std::bad_alloc &) {
        // Warm-load starved: start cold, keep the journal attached.
        // Recovered-so-far cells are dropped wholesale — a partial
        // warm set is fine, but the simple invariant ("warm iff the
        // load succeeded") is easier to reason about in a crash
        // report.
        for (Shard &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            shard.drop();
        }
        deadBytes = 0;
        load = PersistLoadStats{};
        load.loadFailed = true;
    }
    // Records that did not stay resident are dead on disk, so
    // compaction can shed them.
    if (deadBytes != 0)
        persist->noteDead(deadBytes);
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
    // names (and their meaning) do not depend on the sharding.
    ResultCacheStats stats;
    for (const Shard &shard : shards_) {
        stats.hits += shard.hits.load(std::memory_order_relaxed);
        stats.misses += shard.misses.load(std::memory_order_relaxed);
        stats.evictions +=
            shard.evictions.load(std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(shard.mutex);
        stats.entries += shard.count;
        stats.residentBytes += shard.residentBytes;
    }
    return stats;
}

void
ResultCache::appendMetrics(MetricsRegistry &metrics) const
{
    const ResultCacheStats s = stats();
    metrics.counter("result_cache.hits").add(s.hits);
    metrics.counter("result_cache.misses").add(s.misses);
    metrics.counter("result_cache.evictions").add(s.evictions);
    metrics.gauge("result_cache.entries").set(double(s.entries));
    metrics.gauge("result_cache.resident_bytes")
        .set(double(s.residentBytes));
    metrics.gauge("result_cache.budget_bytes")
        .set(double(shardBudget_ * kShardCount));
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
        shard.drop();
        shard.hits.store(0, std::memory_order_relaxed);
        shard.misses.store(0, std::memory_order_relaxed);
        shard.evictions.store(0, std::memory_order_relaxed);
    }
}

} // namespace mfusim
