/**
 * @file
 * Trace cache implementation.
 */

#include "mfusim/harness/trace_library.hh"

#include <stdexcept>

#include "mfusim/codegen/livermore.hh"
#include "mfusim/harness/spec_parse.hh"

namespace mfusim
{

namespace
{

void
checkLoopId(int loopId)
{
    if (loopId < 1 || loopId > 14) {
        throw std::invalid_argument(
            "TraceLibrary: loop id must be 1..14");
    }
}

} // namespace

TraceLibrary &
TraceLibrary::instance()
{
    static TraceLibrary library;
    return library;
}

const DynTrace &
TraceLibrary::trace(int loopId)
{
    checkLoopId(loopId);
    auto &slot = traces_[std::size_t(loopId)];
    // call_once rather than double-checked locking: concurrent first
    // uses of the same loop build it exactly once, and a build that
    // throws (validation failure) leaves the flag unset so the next
    // caller retries and sees the same exception.
    std::call_once(traceOnce_[std::size_t(loopId)], [&] {
        slot = std::make_unique<DynTrace>(traceKernel(loopId));
        tracesHeld_.fetch_add(1, std::memory_order_relaxed);
    });
    return *slot;
}

const std::shared_ptr<const TraceBody> &
TraceLibrary::body(int loopId)
{
    checkLoopId(loopId);
    auto &slot = bodies_[std::size_t(loopId)];
    // The run is validated before the body exists, and the body is
    // decoded straight from its execution log, so a library that
    // only simulates never builds a DynTrace.
    std::call_once(bodyOnce_[std::size_t(loopId)], [&] {
        slot = bodyForLoopSpec(parseLoopSpec(std::to_string(loopId)));
    });
    return slot;
}

const DecodedTrace &
TraceLibrary::decoded(int loopId, const MachineConfig &cfg)
{
    const std::shared_ptr<const TraceBody> &shared = body(loopId);
    ViewShard &shard = viewShards_[std::size_t(loopId)];
    const std::uint64_t key =
        (std::uint64_t(cfg.memLatency) << 32) | cfg.branchTime;
    // A view costs one per-row table, so it is built under the
    // shard lock: configurations of one loop briefly serialize, and
    // no duplicate is ever built.
    std::lock_guard<std::mutex> lock(shard.mutex);
    std::unique_ptr<DecodedTrace> &view = shard.cache[key];
    if (!view)
        view = std::make_unique<DecodedTrace>(shared, cfg);
    return *view;
}

} // namespace mfusim
