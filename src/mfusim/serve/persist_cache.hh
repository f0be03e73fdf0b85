/**
 * @file
 * Crash-safe on-disk journal behind the in-memory ResultCache.
 *
 * The serve daemon's value compounds as its cache warms: after a few
 * thousand requests most of the paper's design space is answered
 * without simulating.  A restart — deploy, crash, OOM-kill — used to
 * throw all of that away.  The PersistentCache keeps the memo on
 * disk so a restarted daemon answers warm, and *bit-identically*:
 * a recovered record is the exact SimResult the simulator produced,
 * or it is discarded.
 *
 * Format (`<dir>/results.mfuj`, little-endian):
 *
 *   header:  u32 magic "MFUJ" | u32 schema version | u32 versionLen
 *            | u32 crc32(version bytes) | version bytes
 *   record:  u32 magic "MFUR" | u32 payloadLen | u32 crc32(payload)
 *            | payload
 *   payload: u32 keyLen | key | u64 instructions | u64 cycles
 *            | u64 stalls[kNumStallCauses] (StallCause order)
 *            | u8 hasStalls | u64 steadyOpsSkipped | u64 squashes
 *            | u64 wrongPathOps
 *
 * The key is the ResultCache's fully composed key, which already
 * embeds the code version (git SHA), trace identity, config, audit
 * and steady-state modes — so a record can never be served against
 * work it does not exactly describe.  The header additionally pins
 * the schema version and the producing build: a mismatch invalidates
 * the whole file at open (a cache is a pure performance artifact;
 * wholesale recomputation is always safe, serving a stale bit never
 * is).
 *
 * Crash safety is by construction, not by locking:
 *
 *  - appends are framed, checksummed, and issued as one write(), so
 *    a SIGKILL mid-append leaves at most one torn record at the tail;
 *  - the recovery scan at open() adopts records until the first
 *    framing/CRC failure, then truncates the file back to the last
 *    good byte — corrupt or torn data is *counted and removed*,
 *    never parsed around;
 *  - compaction streams the live records (the ResultCache's
 *    resident set) into a temp file and renames it over the journal,
 *    so a crash mid-compaction leaves either the old or the new
 *    file, both valid.
 *
 * I/O failures are absorbed, not thrown: a cache that cannot persist
 * degrades to the in-memory behavior with counters raised — the
 * daemon must keep serving on a full disk.  Fault points
 * (core/faultpoint.hh: persist.write / persist.fsync / persist.load
 * / persist.compact) make every failure path provokable in tests.
 */

#ifndef MFUSIM_SERVE_PERSIST_CACHE_HH
#define MFUSIM_SERVE_PERSIST_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "mfusim/sim/simulator.hh"

namespace mfusim
{

/** What the recovery scan found at open(). */
struct PersistLoadStats
{
    std::uint64_t recovered = 0;        //!< records adopted
    std::uint64_t discardedCorrupt = 0; //!< framing/CRC-rejected records
    std::uint64_t discardedVersion = 0; //!< whole-file version wipes
    std::uint64_t truncatedBytes = 0;   //!< bytes cut off the file
    bool loadFailed = false;            //!< warm-load aborted; cold start
};

/** Cumulative journal telemetry since open(). */
struct PersistStats
{
    std::uint64_t appends = 0;      //!< records durably framed
    std::uint64_t appendErrors = 0; //!< failed/injected write errors
    std::uint64_t fsyncs = 0;
    std::uint64_t fsyncErrors = 0;
    std::uint64_t compactions = 0;
    std::uint64_t compactErrors = 0;
    std::uint64_t deadBytes = 0;    //!< torn/duplicate bytes on disk
    std::uint64_t fileBytes = 0;    //!< current journal size
};

class PersistentCache
{
  public:
    struct Options
    {
        /** Appends between fsyncs (1 = every append). */
        unsigned fsyncEvery = 8;
        /** Journals smaller than this are never compacted. */
        std::uint64_t compactMinBytes = 64 * 1024;
        /** Appends between compaction-trigger checks. */
        unsigned compactCheckEvery = 256;
    };

    /** @p dir is created if missing; the journal is `dir/results.mfuj`. */
    explicit PersistentCache(std::string dir);
    PersistentCache(std::string dir, Options options);
    ~PersistentCache();

    PersistentCache(const PersistentCache &) = delete;
    PersistentCache &operator=(const PersistentCache &) = delete;

    /**
     * Open (or create) the journal, validate its header against
     * @p version, scan and hand every valid record to @p sink, and
     * truncate any torn/corrupt tail.  A header mismatch (schema or
     * version) wipes the file and starts fresh.  @throws
     * std::bad_alloc only when the persist.load fault point fires
     * (callers must survive it by starting cold).
     */
    PersistLoadStats
    open(const std::string &version,
         const std::function<void(std::string, const SimResult &)>
             &sink);

    /**
     * Append one record; thread-safe.  Returns false (and counts)
     * when the record could not be durably framed — the in-memory
     * cache is unaffected either way.
     */
    bool append(const std::string &key, const SimResult &result);

    /** fsync any buffered appends (drain path). */
    void flush();

    /** Receives one record: its composed key and its result. */
    using RecordSink =
        std::function<void(const std::string &, const SimResult &)>;
    /** Calls its sink once for every live record. */
    using LiveRecords = std::function<void(const RecordSink &)>;

    /**
     * Compact when the journal has accumulated enough dead bytes
     * (torn writes, duplicates, evicted cells): stream exactly
     * @p live's records into a temp file and atomically rename it
     * over the journal.  @p live runs under the journal lock so no
     * concurrent append can be lost.  Returns true if a compaction
     * ran.
     */
    bool maybeCompact(const LiveRecords &live);

    /** maybeCompact() without the size heuristics (tests, drain). */
    bool compactNow(const LiveRecords &live);

    /**
     * Count @p bytes of the journal as no longer live (records of
     * evicted cells, or recovered records the cache did not keep),
     * so that maybeCompact() sheds them.
     */
    void noteDead(std::uint64_t bytes);

    /** The on-disk size of a record whose composed key has @p keyBytes. */
    static std::uint64_t recordBytes(std::size_t keyBytes);

    PersistStats stats() const;
    const std::string &path() const { return path_; }

    /** CRC-32 (IEEE 802.3) of @p size bytes at @p data. */
    static std::uint32_t crc32(const void *data, std::size_t size);

  private:
    bool writeRaw(const char *data, std::size_t size);
    void fsyncLocked();
    bool compactLocked(const LiveRecords &live);
    bool writeHeader(int fd, const std::string &version) const;

    Options options_;
    std::string dir_;
    std::string path_;
    std::string version_;

    mutable std::mutex mutex_;
    int fd_ = -1;
    std::uint64_t fileBytes_ = 0;
    std::uint64_t deadBytes_ = 0;
    unsigned sinceFsync_ = 0;
    unsigned sinceCompactCheck_ = 0;
    PersistStats stats_;
};

} // namespace mfusim

#endif // MFUSIM_SERVE_PERSIST_CACHE_HH
