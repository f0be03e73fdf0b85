/**
 * @file
 * The trace library's memory rule (trace_library.hh): building every
 * body, view and periodicity analysis frees no heap block of 128 KiB
 * or more.  Freeing an mmapped block that large raises glibc's mmap
 * and trim thresholds for the rest of the process, and the
 * simulators' per-run scratch then stays resident.
 *
 * The check replaces the global operator delete of this test binary
 * with one that notes the usable size of each freed block while a
 * watch is armed.  Sanitizer runtimes own operator new/delete, so
 * the check skips under them.
 *
 * The same watch also nets the usable sizes of the blocks operator
 * new hands out against those freed, which pins the bodies'
 * footprint: a 4 B/op shape-id column plus the interned shape and
 * row tables, under 5 B/op for the library's loops and under 21 B/op
 * for an aperiodic trace.  It pins the result cache's footprint too:
 * at most 100 B per cached cell, packed record, interned machine
 * key and index slot included.
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "mfusim/harness/spec_parse.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/serve/result_cache.hh"
#include "test_util.hh"

namespace
{

std::atomic<bool> g_watching{ false };
std::atomic<std::size_t> g_largestFree{ 0 };
std::atomic<std::int64_t> g_liveBytes{ 0 };

// Unused under the sanitizers, whose runtimes keep operator new/delete.
[[maybe_unused]] void *
acquire(std::size_t size)
{
    void *const p = std::malloc(size == 0 ? 1 : size);
    if (p == nullptr)
        throw std::bad_alloc();
    if (g_watching.load(std::memory_order_relaxed))
        g_liveBytes += std::int64_t(malloc_usable_size(p));
    return p;
}

[[maybe_unused]] void
release(void *p) noexcept
{
    if (p != nullptr && g_watching.load(std::memory_order_relaxed)) {
        const std::size_t size = malloc_usable_size(p);
        g_liveBytes -= std::int64_t(size);
        std::size_t seen = g_largestFree.load(std::memory_order_relaxed);
        while (size > seen &&
               !g_largestFree.compare_exchange_weak(seen, size)) {
        }
    }
    std::free(p);
}

} // namespace

#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
void *operator new(std::size_t size) { return acquire(size); }
void *operator new[](std::size_t size) { return acquire(size); }
void operator delete(void *p) noexcept { release(p); }
void operator delete[](void *p) noexcept { release(p); }
void operator delete(void *p, std::size_t) noexcept { release(p); }
void operator delete[](void *p, std::size_t) noexcept { release(p); }
#endif

namespace mfusim
{
namespace
{

TEST(TraceLibraryMemory, SetUpFreesNoBlockOf128KiB)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "the sanitizer runtime owns operator delete";
#endif
    TraceLibrary lib;
    g_largestFree = 0;
    g_watching = true;
    for (int loop = 1; loop <= 14; ++loop) {
        for (const MachineConfig &cfg : standardConfigs()) {
            const DecodedTrace &view = lib.decoded(loop, cfg);
            view.periodicity();
            view.writtenRegs();
        }
    }
    g_watching = false;
    EXPECT_EQ(lib.tracesHeld(), 0u);
    EXPECT_LT(g_largestFree.load(), std::size_t(128) * 1024);
}

TEST(TraceLibraryMemory, BodiesHoldSixteenBytesPerOp)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "the sanitizer runtime owns operator new/delete";
#endif
    // What building the 14 bodies leaves allocated, at most 5 B/op:
    // the 4 B/op shape-id column plus, per body, its shape table
    // (16 B a shape, 1,380 shapes in the library), its row table
    // (20 B a row, 12-113 rows each), object and name.  The test's
    // name predates the shape table; it stays so that the filters
    // which select it keep doing so.
    TraceLibrary lib;
    g_liveBytes = 0;
    g_watching = true;
    std::size_t ops = 0;
    for (int loop = 1; loop <= 14; ++loop)
        ops += lib.body(loop)->size();
    g_watching = false;
    const std::int64_t live = g_liveBytes.load();
    EXPECT_GT(live, std::int64_t(4 * ops));
    EXPECT_LE(live, std::int64_t(5 * ops)) << ops << " ops";
}

TEST(TraceLibraryMemory, AperiodicBodyHoldsUnderTwentyOneBytesPerOp)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "the sanitizer runtime owns operator new/delete";
#endif
    // A random trace repeats few (row, links) shapes, so interning
    // costs about 0.9 shapes of 16 B per op on top of the 4 B/op
    // column.
    constexpr std::size_t kOps = 100000;
    const DynTrace trace = test::randomTrace(0x5eed, kOps);
    g_liveBytes = 0;
    g_watching = true;
    auto body = std::make_unique<const TraceBody>(trace);
    g_watching = false;
    const std::int64_t live = g_liveBytes.load();
    EXPECT_GT(body->numShapes(), kOps / 2);
    EXPECT_GT(live, std::int64_t(4 * kOps));
    EXPECT_LE(live, std::int64_t(21 * kOps));
}

TEST(ResultCacheMemory, CellHoldsAtMostOneHundredBytes)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "the sanitizer runtime owns operator new/delete";
#endif
    // 2,856 distinct cells, keyed as the daemon keys them: 204 RUU
    // machines (widths 1-4, sizes 50-100), each under one of the four
    // configs, over the 14 loops, with a short git SHA as the
    // version.  Each cell's result has the magnitudes of an RUU run:
    // no stall counters, most ops closed by steady state.
    std::vector<std::string> machineKeys;
    std::vector<MachineConfig> configs;
    for (unsigned width = 1; width <= 4; ++width)
        for (unsigned size = 50; size <= 100; ++size) {
            const MachineConfig &cfg =
                standardConfigs()[machineKeys.size() % 4];
            machineKeys.push_back(
                parseMachineSpec("ruu:" + std::to_string(width) + ":" +
                                     std::to_string(size),
                                 cfg)
                    ->cacheKey());
            configs.push_back(cfg);
        }
    std::vector<std::string> traceKeys;
    for (int loop = 1; loop <= 14; ++loop)
        traceKeys.push_back("LL" + std::to_string(loop));

    ResultCache cache;
    cache.setVersion("51ab0e8");
    g_liveBytes = 0;
    g_watching = true;
    for (std::size_t m = 0; m < machineKeys.size(); ++m)
        for (std::size_t l = 0; l < traceKeys.size(); ++l) {
            SimResult r;
            r.instructions = 2000 + 131 * l + m;
            r.cycles = r.instructions * 3 / 2 + m;
            r.steadyOpsSkipped = r.instructions * 4 / 5;
            cache.store(machineKeys[m], traceKeys[l], configs[m], false,
                        r);
        }
    g_watching = false;
    const std::int64_t live = g_liveBytes.load();
    const std::uint64_t cells = cache.stats().entries;
    ASSERT_EQ(cells, 2856u);
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_LE(live, std::int64_t(100 * cells))
        << double(live) / double(cells) << " B per cell";
    RecordProperty("bytes_per_cell",
                   std::to_string(double(live) / double(cells)));
}

} // namespace
} // namespace mfusim
