/**
 * @file
 * Cached dynamic traces of the 14 Livermore loops.
 *
 * Trace generation (assemble + interpret + validate) costs far more
 * than a timing simulation, and every experiment sweeps the same 14
 * traces over dozens of machine configurations, so each loop is
 * generated once per process and shared as its configuration-
 * independent TraceBody (decode, dependence links, statistics,
 * periodicity analysis).  The DecodedTrace of a (loop, machine
 * configuration) pair is a thin view of that body — a per-row
 * latency table — built once per pair and reused by every simulator
 * timing it.
 *
 * Only the bodies are simulated, so body() never builds the raw
 * DynTrace: the interpreter's 4 B/op execution log is validated
 * against the reference kernel and decoded straight into the body
 * (bodyForLoopSpec(), spec_parse.hh), then dropped.  trace() is a
 * separate cache, filled only for the callers that need raw ops
 * (saving a trace, tests, the benchmark's per-layer replay); it runs
 * the loop again on its first use and expands the log into a
 * DynTrace of exactly the right size.
 *
 * Memory rule: building the bodies frees no heap block of 128 KiB or
 * more.  glibc serves such blocks with mmap, and freeing one raises
 * its mmap threshold to that block's size and its trim threshold to
 * twice that, for the rest of the process; from then on the
 * simulators' per-run scratch (an RuuSim entry list, say) stays
 * resident in the worker arenas instead of being returned on free.
 * The rule holds by construction, with no mallopt() call: the log
 * grows in 16 KiB chunks (LL6, the longest loop, logs 66 KiB),
 * LL6's kernel reserves its 4097 initial memory cells exactly, each
 * body's shape-id column (4 B/op; the shape and row tables beside it
 * are a few KiB) lives in one block as long as the library does, and
 * no DynTrace (16 B/op, grown by doubling) is built on the way.  The
 * TraceLibraryMemory test checks it.
 *
 * All three caches are thread safe, so parallel sweep workers
 * (sweep.hh) can share the library without external locking.
 */

#ifndef MFUSIM_HARNESS_TRACE_LIBRARY_HH
#define MFUSIM_HARNESS_TRACE_LIBRARY_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "mfusim/core/decoded_trace.hh"
#include "mfusim/core/machine_config.hh"
#include "mfusim/core/trace.hh"

namespace mfusim
{

/**
 * Lazily built, process-wide cache of the benchmark traces.
 */
class TraceLibrary
{
  public:
    /** The process-wide instance. */
    static TraceLibrary &instance();

    /**
     * A library of its own, sharing nothing with instance(): every
     * trace, body and view is built afresh on first use (the tests
     * count builds this way).
     */
    TraceLibrary() = default;

    /**
     * The validated dynamic trace of Livermore loop @p loopId
     * (1..14), for callers that need the raw ops; simulation goes
     * through body() and decoded(), which never build it.  Built
     * (and checked against the C++ reference kernels) on first use;
     * throws if validation fails.  Safe to call from multiple
     * threads: exactly one builds the trace, the rest wait.
     */
    const DynTrace &trace(int loopId);

    /**
     * The configuration-independent decode of loop @p loopId.  Built
     * exactly once, on first use, even when many threads ask at once,
     * from an execution log that is validated against the reference
     * kernels first and dropped once decoded; throws if validation
     * fails.  No DynTrace is built.
     */
    const std::shared_ptr<const TraceBody> &body(int loopId);

    /**
     * The pre-decoded trace of loop @p loopId under @p cfg: a view of
     * body(loopId) with the latencies of @p cfg.  Built on first use
     * per (loop, memLatency, branchTime) and cached for the life of
     * the library; thread safe.  Every configuration of one loop
     * shares one body, hence one periodicity analysis.  The view's
     * config() carries the two latencies only (a disarmed predictor),
     * whatever predictor the first caller asked with.
     */
    const DecodedTrace &decoded(int loopId, const MachineConfig &cfg);

    /**
     * DynTraces this library holds: one per loop trace() has been
     * asked for, none for loops only decoded (the tests pin that).
     */
    std::size_t tracesHeld() const
    {
        return tracesHeld_.load(std::memory_order_relaxed);
    }

  private:
    std::array<std::unique_ptr<DynTrace>, 15> traces_;
    std::array<std::once_flag, 15> traceOnce_;
    std::atomic<std::size_t> tracesHeld_{ 0 };

    std::array<std::shared_ptr<const TraceBody>, 15> bodies_;
    std::array<std::once_flag, 15> bodyOnce_;

    // The view cache is sharded per loop: parallel sweep workers
    // overwhelmingly ask for different loops at once (the sweep
    // runner fans out one loop per task), so one mutex per loop
    // removes the single global lock from the sweep hot path.  The
    // per-shard key folds the configuration fields that decoding
    // depends on into one integer.
    struct ViewShard
    {
        std::mutex mutex;
        std::unordered_map<std::uint64_t,
                           std::unique_ptr<DecodedTrace>>
            cache;
    };
    std::array<ViewShard, 15> viewShards_;
};

} // namespace mfusim

#endif // MFUSIM_HARNESS_TRACE_LIBRARY_HH
