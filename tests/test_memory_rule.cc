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
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "mfusim/harness/trace_library.hh"

namespace
{

std::atomic<bool> g_watching{ false };
std::atomic<std::size_t> g_largestFree{ 0 };

void
release(void *p) noexcept
{
    if (p != nullptr && g_watching.load(std::memory_order_relaxed)) {
        const std::size_t size = malloc_usable_size(p);
        std::size_t seen = g_largestFree.load(std::memory_order_relaxed);
        while (size > seen &&
               !g_largestFree.compare_exchange_weak(seen, size)) {
        }
    }
    std::free(p);
}

} // namespace

#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
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

} // namespace
} // namespace mfusim
