/**
 * @file
 * PersistentCache: journal framing, recovery scan, compaction.
 */

#include "mfusim/serve/persist_cache.hh"

#include <cerrno>
#include <cstring>
#include <new>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "mfusim/core/faultpoint.hh"

namespace mfusim
{

namespace
{

constexpr std::uint32_t kFileMagic = 0x4A55464DU;   // "MFUJ" LE
constexpr std::uint32_t kRecordMagic = 0x5255464DU; // "MFUR" LE
// v2: payload grew the speculation counters (squashes, wrongPathOps).
// v3: machine keys lost the branch-policy field ("|bp="); ",oracle"
// and ",btfn" now key as the predictors they alias.
// A version bump discards older journals wholesale — recomputing is
// always safe; decoding an old record under a new key scheme never is.
constexpr std::uint32_t kSchemaVersion = 3;
/** Framing sanity bound: no composed key approaches this. */
constexpr std::uint32_t kMaxPayloadBytes = 1 << 20;
constexpr std::size_t kRecordHeaderBytes = 12;

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(char((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(char((v >> (8 * i)) & 0xff));
}

std::uint32_t
getU32(const char *p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | std::uint8_t(p[i]);
    return v;
}

std::uint64_t
getU64(const char *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | std::uint8_t(p[i]);
    return v;
}

/** payload := keyLen key instructions cycles stalls[5] hasStalls
 *  skipped squashes wrongPathOps */
std::string
encodePayload(const std::string &key, const SimResult &r)
{
    std::string payload;
    payload.reserve(4 + key.size() + 7 * 8 + 1 + 3 * 8);
    putU32(payload, std::uint32_t(key.size()));
    payload.append(key);
    putU64(payload, r.instructions);
    putU64(payload, r.cycles);
    putU64(payload, r.stalls.raw);
    putU64(payload, r.stalls.waw);
    putU64(payload, r.stalls.structural);
    putU64(payload, r.stalls.resultBus);
    putU64(payload, r.stalls.branch);
    payload.push_back(r.hasStalls ? '\1' : '\0');
    putU64(payload, r.steadyOpsSkipped);
    putU64(payload, r.squashes);
    putU64(payload, r.wrongPathOps);
    return payload;
}

bool
decodePayload(const char *p, std::size_t size, std::string *key,
              SimResult *r)
{
    if (size < 4)
        return false;
    const std::uint32_t keyLen = getU32(p);
    if (size != 4 + std::size_t(keyLen) + 7 * 8 + 1 + 3 * 8)
        return false;
    key->assign(p + 4, keyLen);
    const char *q = p + 4 + keyLen;
    r->instructions = getU64(q);
    r->cycles = getU64(q + 8);
    r->stalls.raw = getU64(q + 16);
    r->stalls.waw = getU64(q + 24);
    r->stalls.structural = getU64(q + 32);
    r->stalls.resultBus = getU64(q + 40);
    r->stalls.branch = getU64(q + 48);
    r->hasStalls = q[56] != '\0';
    r->steadyOpsSkipped = getU64(q + 57);
    r->squashes = getU64(q + 65);
    r->wrongPathOps = getU64(q + 73);
    return true;
}

std::string
encodeRecord(const std::string &key, const SimResult &r)
{
    const std::string payload = encodePayload(key, r);
    std::string record;
    record.reserve(kRecordHeaderBytes + payload.size());
    putU32(record, kRecordMagic);
    putU32(record, std::uint32_t(payload.size()));
    putU32(record,
           PersistentCache::crc32(payload.data(), payload.size()));
    record.append(payload);
    return record;
}

std::string
encodeHeader(const std::string &version)
{
    std::string header;
    putU32(header, kFileMagic);
    putU32(header, kSchemaVersion);
    putU32(header, std::uint32_t(version.size()));
    putU32(header,
           PersistentCache::crc32(version.data(), version.size()));
    header.append(version);
    return header;
}

} // namespace

std::uint32_t
PersistentCache::crc32(const void *data, std::size_t size)
{
    static const auto table = [] {
        std::vector<std::uint32_t> t(256);
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c >> 1) ^ ((c & 1) ? 0xEDB88320U : 0);
            t[i] = c;
        }
        return t;
    }();
    std::uint32_t crc = 0xFFFFFFFFU;
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < size; ++i)
        crc = (crc >> 8) ^ table[(crc ^ p[i]) & 0xff];
    return crc ^ 0xFFFFFFFFU;
}

PersistentCache::PersistentCache(std::string dir)
    : PersistentCache(std::move(dir), Options())
{
}

PersistentCache::PersistentCache(std::string dir, Options options)
    : options_(options), dir_(std::move(dir)),
      path_(dir_ + "/results.mfuj")
{
    if (options_.fsyncEvery == 0)
        options_.fsyncEvery = 1;
    if (options_.compactCheckEvery == 0)
        options_.compactCheckEvery = 1;
}

PersistentCache::~PersistentCache()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ >= 0) {
        ::fsync(fd_);
        ::close(fd_);
        fd_ = -1;
    }
}

bool
PersistentCache::writeHeader(int fd, const std::string &version) const
{
    const std::string header = encodeHeader(version);
    std::size_t done = 0;
    while (done < header.size()) {
        const ssize_t n = ::write(fd, header.data() + done,
                                  header.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += std::size_t(n);
    }
    return true;
}

PersistLoadStats
PersistentCache::open(
    const std::string &version,
    const std::function<void(std::string, const SimResult &)> &sink)
{
    std::lock_guard<std::mutex> lock(mutex_);
    PersistLoadStats load;
    version_ = version;

    ::mkdir(dir_.c_str(), 0755);    // EEXIST is the common case
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0) {
        load.loadFailed = true;
        return load;
    }

    // Read the whole journal for the recovery scan.
    std::string file;
    {
        char chunk[1 << 16];
        for (;;) {
            const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                load.loadFailed = true;
                return load;
            }
            if (n == 0)
                break;
            file.append(chunk, std::size_t(n));
        }
    }

    const std::string expectedHeader = encodeHeader(version);
    bool freshFile = file.empty();
    if (!freshFile && (file.size() < expectedHeader.size() ||
                       std::memcmp(file.data(), expectedHeader.data(),
                                   expectedHeader.size()) != 0)) {
        // Unrecognized or differently-versioned journal: the whole
        // file is invalid for this build.  Recomputing is always
        // safe; serving a stale bit never is.
        ++load.discardedVersion;
        load.truncatedBytes += file.size();
        freshFile = true;
    }

    if (freshFile) {
        if (::ftruncate(fd_, 0) != 0 ||
            ::lseek(fd_, 0, SEEK_SET) < 0 ||
            !writeHeader(fd_, version)) {
            load.loadFailed = true;
            return load;
        }
        fileBytes_ = expectedHeader.size();
        deadBytes_ = 0;
        stats_.fileBytes = fileBytes_;
        return load;
    }

    // Scan records; stop (and truncate) at the first framing or
    // checksum failure — everything after a bad record is suspect.
    std::size_t offset = expectedHeader.size();
    std::size_t lastGood = offset;
    while (offset < file.size()) {
        if (faultAt("persist.load"))
            throw std::bad_alloc();
        if (file.size() - offset < kRecordHeaderBytes)
            break;      // torn record header
        const char *head = file.data() + offset;
        const std::uint32_t magic = getU32(head);
        const std::uint32_t payloadLen = getU32(head + 4);
        const std::uint32_t crc = getU32(head + 8);
        if (magic != kRecordMagic || payloadLen > kMaxPayloadBytes) {
            ++load.discardedCorrupt;
            break;
        }
        if (file.size() - offset - kRecordHeaderBytes < payloadLen)
            break;      // torn payload
        const char *payload = head + kRecordHeaderBytes;
        std::string key;
        SimResult result;
        if (crc32(payload, payloadLen) != crc ||
            !decodePayload(payload, payloadLen, &key, &result)) {
            ++load.discardedCorrupt;
            break;
        }
        sink(std::move(key), result);
        ++load.recovered;
        offset += kRecordHeaderBytes + payloadLen;
        lastGood = offset;
    }

    if (lastGood < file.size()) {
        load.truncatedBytes += file.size() - lastGood;
        if (::ftruncate(fd_, off_t(lastGood)) != 0) {
            // Could not remove the bad tail: treat its bytes as dead
            // and let compaction rewrite a clean file later.
            deadBytes_ += file.size() - lastGood;
            lastGood = file.size();
        }
    }
    ::lseek(fd_, off_t(lastGood), SEEK_SET);
    fileBytes_ = lastGood;
    stats_.fileBytes = fileBytes_;
    return load;
}

bool
PersistentCache::writeRaw(const char *data, std::size_t size)
{
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n =
            ::write(fd_, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            // Partial record on disk: cut it back off so the journal
            // stays clean even without a recovery scan.
            if (done > 0 &&
                ::ftruncate(fd_, off_t(fileBytes_)) == 0)
                ::lseek(fd_, off_t(fileBytes_), SEEK_SET);
            else
                deadBytes_ += done;
            return false;
        }
        done += std::size_t(n);
    }
    return true;
}

bool
PersistentCache::append(const std::string &key,
                        const SimResult &result)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0)
        return false;
    const std::string record = encodeRecord(key, result);

    if (faultAt("persist.write")) {
        ++stats_.appendErrors;
        if (faultMode("persist.write") == "torn") {
            // Crash-mid-write simulation: half the record reaches
            // disk.  The recovery scan must truncate it.
            const std::size_t half = record.size() / 2;
            if (writeRaw(record.data(), half)) {
                fileBytes_ += half;
                deadBytes_ += half;
                stats_.fileBytes = fileBytes_;
                stats_.deadBytes = deadBytes_;
            }
        }
        return false;
    }

    if (!writeRaw(record.data(), record.size())) {
        ++stats_.appendErrors;
        stats_.deadBytes = deadBytes_;
        return false;
    }
    fileBytes_ += record.size();
    ++stats_.appends;
    stats_.fileBytes = fileBytes_;
    if (++sinceFsync_ >= options_.fsyncEvery)
        fsyncLocked();
    return true;
}

void
PersistentCache::fsyncLocked()
{
    sinceFsync_ = 0;
    if (faultAt("persist.fsync")) {
        ++stats_.fsyncErrors;
        return;
    }
    if (::fsync(fd_) == 0)
        ++stats_.fsyncs;
    else
        ++stats_.fsyncErrors;
}

void
PersistentCache::flush()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ >= 0 && sinceFsync_ > 0)
        fsyncLocked();
}

bool
PersistentCache::maybeCompact(
    const std::function<
        std::vector<std::pair<std::string, SimResult>>()>
        &liveSnapshot)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0)
        return false;
    if (++sinceCompactCheck_ < options_.compactCheckEvery)
        return false;
    sinceCompactCheck_ = 0;
    // Compact once dead bytes dominate a journal worth rewriting.
    if (fileBytes_ < options_.compactMinBytes || deadBytes_ == 0 ||
        deadBytes_ * 2 < fileBytes_)
        return false;
    return compactLocked(liveSnapshot());
}

bool
PersistentCache::compactNow(
    const std::function<
        std::vector<std::pair<std::string, SimResult>>()>
        &liveSnapshot)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0)
        return false;
    return compactLocked(liveSnapshot());
}

bool
PersistentCache::compactLocked(
    const std::vector<std::pair<std::string, SimResult>> &live)
{
    if (faultAt("persist.compact")) {
        ++stats_.compactErrors;
        return false;
    }
    const std::string tmpPath = path_ + ".tmp";
    const int tmp = ::open(tmpPath.c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                           0644);
    if (tmp < 0) {
        ++stats_.compactErrors;
        return false;
    }
    std::string out = encodeHeader(version_);
    for (const auto &[key, result] : live)
        out.append(encodeRecord(key, result));
    std::size_t done = 0;
    bool ok = true;
    while (done < out.size()) {
        const ssize_t n =
            ::write(tmp, out.data() + done, out.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ok = false;
            break;
        }
        done += std::size_t(n);
    }
    if (ok)
        ok = ::fsync(tmp) == 0;
    ::close(tmp);
    if (ok)
        ok = ::rename(tmpPath.c_str(), path_.c_str()) == 0;
    if (!ok) {
        ::unlink(tmpPath.c_str());
        ++stats_.compactErrors;
        return false;
    }

    // Swap the append fd over to the new file.
    const int fresh =
        ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
    if (fresh >= 0) {
        ::lseek(fresh, 0, SEEK_END);
        ::close(fd_);
        fd_ = fresh;
    }
    fileBytes_ = out.size();
    deadBytes_ = 0;
    sinceFsync_ = 0;
    ++stats_.compactions;
    stats_.fileBytes = fileBytes_;
    stats_.deadBytes = 0;
    return true;
}

PersistStats
PersistentCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    PersistStats out = stats_;
    out.fileBytes = fileBytes_;
    out.deadBytes = deadBytes_;
    return out;
}

} // namespace mfusim
