/**
 * @file
 * Batched sweep implementation.
 */

#include "mfusim/sim/batched.hh"

#include <atomic>

#include "mfusim/core/error.hh"

namespace mfusim
{

namespace
{

std::atomic<std::uint64_t> g_batches{ 0 };
std::atomic<std::uint64_t> g_lanes{ 0 };

} // namespace

BatchTelemetry
batchTelemetry()
{
    BatchTelemetry t;
    t.batches = g_batches.load(std::memory_order_relaxed);
    t.lanes = g_lanes.load(std::memory_order_relaxed);
    return t;
}

BatchOutcome
runBatch(const std::vector<BatchLane> &lanes)
{
    for (const BatchLane &lane : lanes) {
        if (lane.sim == nullptr || lane.trace == nullptr)
            throw ConfigError("runBatch: null lane");
    }
    BatchOutcome out;
    out.results.reserve(lanes.size());
    for (const BatchLane &lane : lanes)
        out.results.push_back(lane.sim->run(*lane.trace));

    if (!lanes.empty()) {
        g_batches.fetch_add(1, std::memory_order_relaxed);
        g_lanes.fetch_add(lanes.size(), std::memory_order_relaxed);
    }
    return out;
}

} // namespace mfusim
