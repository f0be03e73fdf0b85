/**
 * @file
 * Trace structure analysis implementation.
 */

#include "mfusim/dataflow/trace_analysis.hh"

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <vector>

#include "mfusim/dataflow/limits.hh"

namespace mfusim
{

DependenceStats
dependenceDistances(const DecodedOps &trace)
{
    DependenceStats stats;
    std::uint64_t distance_sum = 0;

    for (std::size_t i = 0; i < trace.size(); ++i) {
        for (const std::uint32_t writer :
             { trace.prodA(i), trace.prodB(i) }) {
            if (writer == DecodedOps::kNoProducer)
                continue;
            const std::uint64_t dist = i - writer;
            stats.totalDeps++;
            distance_sum += dist;
            if (dist <= DependenceStats::kBuckets)
                stats.histogram[dist - 1]++;
            else
                stats.longer++;
        }
    }
    if (stats.totalDeps > 0) {
        stats.meanDistance =
            double(distance_sum) / double(stats.totalDeps);
    }
    return stats;
}

BasicBlockStats
basicBlocks(const DecodedOps &trace)
{
    BasicBlockStats stats;
    std::uint64_t current = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        ++current;
        if (trace.isBranch(i)) {
            stats.blocks++;
            stats.totalOps += current;
            stats.maxLength = std::max(stats.maxLength, current);
            current = 0;
        }
    }
    if (current > 0) {
        stats.blocks++;
        stats.totalOps += current;
        stats.maxLength = std::max(stats.maxLength, current);
    }
    return stats;
}

WidthProfile
widthProfile(const DecodedTrace &trace)
{
    // starts[c]: ops that start in cycle c.
    std::vector<std::uint64_t> starts;
    const ClockCycle critical = walkPseudoDataflow(
        trace, false, [&](std::size_t, ClockCycle start, ClockCycle) {
            if (start >= starts.size())
                starts.resize(start + 1);
            ++starts[start];
        });

    WidthProfile profile;
    if (critical == 0)
        return profile;
    profile.levels = critical;
    profile.meanWidth = double(trace.size()) / double(critical);
    profile.peakWidth = *std::max_element(starts.begin(), starts.end());
    profile.activeFraction =
        double(starts.size() -
               std::count(starts.begin(), starts.end(), 0u)) /
        double(critical);
    return profile;
}

BufferDemand
bufferDemand(const DecodedTrace &trace)
{
    // Each value is buffered from its ready time until the latest
    // start of a consumer (at least until it is ready).
    const std::size_t n = trace.size();
    std::vector<ClockCycle> ready(n);
    std::vector<ClockCycle> last_use(n);
    const ClockCycle critical = walkPseudoDataflow(
        trace, false,
        [&](std::size_t i, ClockCycle start, ClockCycle when) {
            for (const std::uint32_t writer :
                 { trace.prodA(i), trace.prodB(i) }) {
                if (writer != DecodedOps::kNoProducer)
                    last_use[writer] = std::max(last_use[writer], start);
            }
            ready[i] = when;
            last_use[i] = when;
        });

    // Sweep: +1 at each value's ready time, -1 after its last use.
    BufferDemand demand;
    std::map<ClockCycle, std::int64_t> events;
    double live_integral = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (trace.isBranch(i) || trace.dst(i) == kNoReg)
            continue;
        events[ready[i]] += 1;
        events[last_use[i] + 1] -= 1;
        live_integral += double(last_use[i] + 1 - ready[i]);
    }
    std::int64_t live = 0;
    for (const auto &[cycle, delta] : events) {
        live += delta;
        demand.peakLiveValues =
            std::max(demand.peakLiveValues, std::uint64_t(live));
    }
    demand.meanLiveValues =
        critical == 0 ? 0.0 : live_integral / double(critical);
    return demand;
}

std::string
analyzeTrace(const DecodedTrace &trace)
{
    std::ostringstream os;
    const TraceStats &stats = trace.stats();
    const DependenceStats deps = dependenceDistances(trace);
    const BasicBlockStats blocks = basicBlocks(trace);
    const WidthProfile width = widthProfile(trace);

    os << "trace '" << trace.name() << "' (" << trace.size()
       << " ops, " << trace.config().name() << ")\n";

    os << "  mix:";
    for (unsigned fu = 0; fu < kNumFuClasses; ++fu) {
        if (stats.perFu[fu] == 0)
            continue;
        os << ' ' << fuClassName(static_cast<FuClass>(fu)) << '='
           << (100 * stats.perFu[fu] + stats.totalOps / 2) /
              stats.totalOps
           << '%';
    }
    os << '\n';

    os << "  branches: every "
       << (stats.branches == 0 ?
           0.0 : double(stats.totalOps) / double(stats.branches))
       << " ops, " << 100.0 * stats.btfnAccuracy()
       << "% BTFN-predictable\n";

    os << "  basic blocks: mean " << blocks.meanLength() << " ops, max "
       << blocks.maxLength << '\n';

    os << "  dependences: mean distance " << deps.meanDistance
       << " ops, " << 100.0 * deps.adjacentFraction()
       << "% adjacent\n";

    const BufferDemand demand = bufferDemand(trace);
    os << "  dataflow width: mean " << width.meanWidth << ", peak "
       << width.peakWidth << ", active cycles "
       << 100.0 * width.activeFraction << "%\n";
    os << "  buffering demand at the dataflow limit: peak "
       << demand.peakLiveValues << " live values (mean "
       << demand.meanLiveValues << ")\n";
    return os.str();
}

} // namespace mfusim
