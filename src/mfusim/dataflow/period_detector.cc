/**
 * @file
 * Periodic-structure detection implementation.
 */

#include "mfusim/dataflow/period_detector.hh"

#include <algorithm>
#include <atomic>

namespace mfusim
{

namespace
{

constexpr std::uint32_t kNoProd = DecodedOps::kNoProducer;

std::atomic<std::uint64_t> g_period_analyses{ 0 };

/** Segments shorter than this many periods are not worth reporting.
 *  One period has no boundary pair to match; two periods already pay
 *  off once the segment's family was confirmed earlier in the run
 *  (the tracker then skips on the first in-segment match). */
constexpr std::size_t kMinPeriods = 2;

/**
 * Are the links of op @p i and its image one period earlier
 * compatible with exact periodicity?  Either both absent, or the
 * later one is the earlier one shifted by a period, or both name the
 * same fixed producer before the segment (loop-invariant operand).
 */
bool
linkOk(std::uint32_t cur, std::uint32_t prev, std::size_t period,
       std::size_t segBase)
{
    if (cur == kNoProd || prev == kNoProd)
        return cur == prev;
    if (cur == std::uint64_t(prev) + period)
        return true;
    return cur == prev && cur < segBase;
}

/**
 * Canonical body key of a segment: the per-op signature of its last
 * (steady-state) period with links normalized to backward distances.
 * Two segments with equal keys behave identically once their
 * per-iteration state converged, so they form one family.  The
 * encoding distinguishes absent links (0), in-segment links by their
 * distance, and pre-segment (loop-invariant) links by a marker; the
 * marker deliberately ignores *which* ancient op it is — families
 * only gate when the steady-state tracker trusts a first match, the
 * exactness of a skip always rests on the full state signature.
 */
std::vector<std::uint64_t>
familyKey(const TraceBody &t, std::size_t base, std::size_t period,
          std::size_t count)
{
    constexpr std::uint64_t kAncient = ~std::uint64_t(0);
    std::vector<std::uint64_t> key;
    key.reserve(1 + period * 4);
    key.push_back(period);
    const std::size_t start = base + (count - 1) * period;
    for (std::size_t i = start; i < start + period; ++i) {
        key.push_back(t.signature(i));
        for (const std::uint32_t link :
             { t.prodA(i), t.prodB(i), t.prevWriter(i) }) {
            if (link == kNoProd)
                key.push_back(0);
            else if (link < base)
                key.push_back(kAncient);
            else
                key.push_back(i - link);
        }
    }
    return key;
}

/** Ops [start, start+period) repeat ops [start-period, start). */
bool
periodMatches(const TraceBody &t, std::size_t start,
              std::size_t period, std::size_t segBase)
{
    for (std::size_t i = start; i < start + period; ++i) {
        // Signature ids leave out the static index and latency:
        // under any one configuration latency is a function of the
        // opcode, so the segments are the same for every
        // configuration.
        if (t.signature(i) != t.signature(i - period))
            return false;
        if (!linkOk(t.prodA(i), t.prodA(i - period), period, segBase))
            return false;
        if (!linkOk(t.prodB(i), t.prodB(i - period), period, segBase))
            return false;
        if (!linkOk(t.prevWriter(i), t.prevWriter(i - period), period,
                    segBase)) {
            return false;
        }
    }
    return true;
}

} // namespace

TracePeriodicity
detectPeriods(const TraceBody &trace)
{
    TracePeriodicity out;
    const std::size_t n = trace.size();

    // Anchor candidates: positions of taken branches (back-edges).
    std::vector<std::size_t> anchors;
    for (std::size_t i = 0; i < n; ++i) {
        if (trace.isBranch(i) && trace.taken(i))
            anchors.push_back(i);
    }

    // Family assignment: canonical body keys of the segments found
    // so far, in family-id order.
    std::vector<std::vector<std::uint64_t>> familyKeys;

    std::size_t m = 0;
    while (m + 1 < anchors.size()) {
        const std::size_t period = anchors[m + 1] - anchors[m];
        const std::size_t segBase = anchors[m] + 1;
        // Periods run (anchor, next anchor]; the first candidate
        // period is ops [segBase, segBase + period).  Extend while
        // the branch spacing holds and each new period repeats the
        // previous one exactly.
        std::size_t count = 1;
        while (m + count + 1 < anchors.size() &&
               anchors[m + count + 1] - anchors[m + count] == period &&
               periodMatches(trace, segBase + count * period, period,
                             segBase)) {
            ++count;
        }
        if (count < kMinPeriods) {
            ++m;
            continue;
        }

        TraceSegment seg;
        seg.base = segBase;
        seg.period = period;
        seg.count = count;
        seg.lookback = period;
        // Harvest the dependence horizon, the fixed pre-segment
        // producers and the insert count from the last period: by
        // link compatibility, a link that still reaches before the
        // segment there is fixed in every period, and in-segment
        // link distances there are the steady-state distances.
        for (std::size_t i = segBase + (count - 1) * period;
             i < segBase + count * period; ++i) {
            if (!trace.isBranch(i))
                ++seg.inserts;
            for (const std::uint32_t link :
                 { trace.prodA(i), trace.prodB(i),
                   trace.prevWriter(i) }) {
                if (link == kNoProd)
                    continue;
                if (link < segBase)
                    seg.ancients.push_back(link);
                else
                    seg.lookback = std::max(seg.lookback, i - link);
            }
        }
        std::sort(seg.ancients.begin(), seg.ancients.end());
        seg.ancients.erase(std::unique(seg.ancients.begin(),
                                       seg.ancients.end()),
                           seg.ancients.end());
        std::vector<std::uint64_t> key =
            familyKey(trace, seg.base, seg.period, seg.count);
        const auto at = std::find(familyKeys.begin(),
                                  familyKeys.end(), key);
        seg.family = std::uint32_t(at - familyKeys.begin());
        if (at == familyKeys.end())
            familyKeys.push_back(std::move(key));
        out.coveredOps += seg.period * seg.count;
        out.segments.push_back(std::move(seg));
        // Resume after this segment's last anchor.
        m += count;
    }
    return out;
}

TracePeriodicity
detectPeriods(const DecodedTrace &trace)
{
    return detectPeriods(trace.body());
}

std::uint64_t
TraceBody::periodAnalyses()
{
    return g_period_analyses.load(std::memory_order_relaxed);
}

const TracePeriodicity &
TraceBody::periodicity() const
{
    // call_once so concurrent simulators analyzing the same shared
    // body race safely; the analysis itself is deterministic.
    std::call_once(periodicityOnce_, [&] {
        periodicity_ =
            std::make_shared<const TracePeriodicity>(
                detectPeriods(*this));
        g_period_analyses.fetch_add(1, std::memory_order_relaxed);
    });
    return *periodicity_;
}

} // namespace mfusim
