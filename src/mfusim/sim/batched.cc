/**
 * @file
 * Batched lockstep sweep kernel implementation.
 *
 * The single-issue machines have no kernel here: SimpleSim and
 * ScoreboardSim define their lane state and one block-advance
 * function, run() advances one lane over the whole trace, and
 * runLaneLockstep() advances a group's lanes block by block through
 * the same function.  In-order MultiIssueSim keeps a kernel of its
 * own: its scalar pass-rescan loop and the lockstep fixpoint below
 * are two computations of one schedule, and the bit-identity tests
 * compare every field of every SimResult.  Lanes never read each
 * other's state, so any interleaving of per-lane progress yields
 * bit-identical results, and lanes are scheduled purely for
 * locality:
 *
 *  - **Block-level lockstep.**  Ops are processed in blocks of
 *    kOpBlock: each lane runs a whole block with its hot scalars
 *    (cycle cursors, window bounds, watermarks) in locals — the
 *    compiler keeps them in registers across hundreds of ops — and
 *    the block's trace words stay warm in cache from the previous
 *    lane's visit.  Per-op lockstep would pay a lane-state reload
 *    and store for every op of every lane; per-block lockstep pays
 *    it once per block.  A lane that extrapolates past the block
 *    (steady-state skip) simply leaves early and is passed over by
 *    the blocks its skip crossed.
 *
 *  - **Lazy bus windows.**  Lanes carry the simulators' own FuPool
 *    and bus windows, whose per-op transitions are inline in their
 *    headers.  The multiple-issue kernel slides only the bus an op
 *    touches instead of the whole set every producing op; sliding
 *    composes, so the state a signature observes is bit-identical
 *    either way.
 *
 *  - **Out-of-struct trackers.**  A steady-state tracker's ring
 *    buffer is kilobytes of boundary history touched only at
 *    segment boundaries; the multiple-issue trackers live in a
 *    vector parallel to the lane states so the per-op state of every
 *    lane fits in a handful of cache lines.
 */

#include "mfusim/sim/batched.hh"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <memory>

#include "mfusim/core/error.hh"
#include "mfusim/core/registers.hh"
#include "mfusim/funits/fu_pool.hh"
#include "mfusim/funits/result_bus.hh"
#include "mfusim/sim/multi_issue_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/simple_sim.hh"
#include "mfusim/sim/steady_state.hh"

namespace mfusim
{

namespace
{

constexpr std::uint32_t kNoProd = DecodedTrace::kNoProducer;
constexpr std::size_t kNoIdx = std::numeric_limits<std::size_t>::max();

/** Ops per lockstep block: small enough that a block's trace words
 *  stay cache-resident across all lanes, large enough to amortize
 *  the per-lane state spill/reload at block edges. */
constexpr std::size_t kOpBlock = 256;

// Out of line so the string building does not bloat the issue loop
// it guards (same treatment as the scalar simulator's watchdog).
[[noreturn]] __attribute__((noinline, cold)) void
throwWatchdog(ClockCycle gap, ClockCycle watchdog, std::size_t op)
{
    throw SimError("MultiIssueSim: no issue for " +
                   std::to_string(gap) + " cycles (watchdog " +
                   std::to_string(watchdog) + "; batched lane): op #" +
                   std::to_string(op) + " cannot issue");
}

// ---------------------------------------------------------------
// Single-issue machines: the simulator's own lane transition,
// advanced block by block across the group.
// ---------------------------------------------------------------

template <class Sim>
void
runLaneLockstep(const std::vector<BatchLane> &lanes,
                const std::vector<std::size_t> &members,
                std::vector<SimResult> &results)
{
    const std::size_t n = lanes[members.front()].trace->size();
    std::vector<const Sim *> sims;
    std::vector<typename Sim::Lane> st;
    sims.reserve(members.size());
    st.reserve(members.size());
    for (const std::size_t m : members) {
        sims.push_back(static_cast<const Sim *>(lanes[m].sim));
        st.emplace_back(*sims.back(), *lanes[m].trace);
    }
    for (std::size_t b0 = 0; b0 < n; b0 += kOpBlock) {
        const std::size_t b1 = std::min(b0 + kOpBlock, n);
        for (std::size_t k = 0; k < st.size(); ++k)
            sims[k]->template advance<false>(st[k], b1);
    }
    for (std::size_t k = 0; k < st.size(); ++k)
        results[members[k]] = Sim::result(st[k]);
}

// ---------------------------------------------------------------
// In-order multiple issue: the scalar pass loop collapses to one
// exact per-op fixpoint (see batched.hh), so the lanes advance
// op-by-op like the single-issue machines.
// ---------------------------------------------------------------

struct MultiIssueLaneState
{
    std::size_t lane;
    const DecodedTrace *trace;
    // The organization/config knobs the issue loop reads, copied
    // out flat so the loop never chases the full config structs.
    unsigned width;
    ClockCycle branchTime;
    ClockCycle watchdog;

    ClockCycle *completion;         // n slots of the group's buffer
    FuPool pool;
    ResultBusSet bus;
    std::size_t wStart = 0;
    std::size_t wEnd = 0;           // 0 forces a refill at op 0
    std::size_t floorIdx = kNoIdx;
    ClockCycle floorTime = 0;
    ClockCycle t = 0;
    ClockCycle last_event = 0;
    ClockCycle end = 0;
    std::size_t boundary;
    std::size_t cursor = 0;
    bool observeAtRefill = true;    // false right after a skip

    MultiIssueLaneState(std::size_t laneIdx, const DecodedTrace &t_,
                        const MultiIssueConfig &o,
                        const MachineConfig &c,
                        const SteadyStateTracker &tracker,
                        ClockCycle *completion_)
        : lane(laneIdx), trace(&t_), width(o.width),
          branchTime(c.branchTime),
          watchdog(o.watchdogCycles > 0 ? o.watchdogCycles
                                        : kDefaultWatchdogCycles),
          completion(completion_),
          pool({ FuDiscipline::kSegmented, MemDiscipline::kInterleaved,
                 o.fuCopies, o.memPorts },
               c),
          bus(o.busKind, o.width), boundary(tracker.nextBoundary())
    {
    }
};

void
runMultiIssueLockstep(const std::vector<BatchLane> &lanes,
                      const std::vector<std::size_t> &members,
                      std::vector<SimResult> &results)
{
    const DecodedTrace &lead = *lanes[members.front()].trace;
    const std::size_t n = lead.size();
    const bool steady = steadyStateEnabled();

    // Every lane's completion times in one buffer.  Per-lane arrays
    // each fall under the allocator's adaptive mmap threshold, so
    // the heap top they free is trimmed after every batch and faults
    // back in on the next; one group-sized block lets the threshold
    // adapt to the batch's working set.
    std::vector<ClockCycle> completion(members.size() * n, 0);
    std::vector<MultiIssueLaneState> st;
    std::vector<SteadyStateTracker> trackers;
    st.reserve(members.size());
    trackers.reserve(members.size());
    for (const std::size_t m : members) {
        const auto *sim =
            static_cast<const MultiIssueSim *>(lanes[m].sim);
        const DecodedTrace &t = *lanes[m].trace;
        checkDecodedConfig(t, sim->config());
        trackers.emplace_back(steady ? &t.periodicity() : nullptr,
                              t.size());
        st.emplace_back(m, t, sim->org(), sim->config(),
                        trackers.back(),
                        completion.data() + st.size() * n);
    }

    for (std::size_t b0 = 0; b0 < n; b0 += kOpBlock) {
        const std::size_t b1 = std::min(b0 + kOpBlock, n);
        for (std::size_t li = 0; li < st.size(); ++li) {
            MultiIssueLaneState &lane = st[li];
            if (lane.cursor >= b1)
                continue;
            SteadyStateTracker &tracker = trackers[li];
            const DecodedTrace &tr = *lane.trace;
            ClockCycle *const comp = lane.completion;
            std::size_t i = lane.cursor;
            std::size_t wStart = lane.wStart;
            std::size_t wEnd = lane.wEnd;
            std::size_t floorIdx = lane.floorIdx;
            std::size_t boundary = lane.boundary;
            ClockCycle floorTime = lane.floorTime;
            ClockCycle t_cur = lane.t;
            ClockCycle last_event = lane.last_event;
            ClockCycle end = lane.end;
            bool observeAtRefill = lane.observeAtRefill;
            const bool crossbar =
                lane.bus.kind() == BusKind::kCrossbar;
            const bool singleBus = lane.bus.kind() == BusKind::kSingle;
            const std::size_t numBusses = lane.bus.numBusses();
            while (i < b1) {
                if (i == wEnd) {
                    // Window refill; mirrors the top of the scalar
                    // while loop (multi_issue_sim.cc).
                    wStart = i;
                    if (observeAtRefill && wStart >= boundary) {
                        if (tracker.beginObserve(wStart)) {
                            const TraceSegment &seg =
                                tracker.segment();
                            const std::size_t lw = seg.lookback;
                            if (wStart < lw) {
                                tracker.cancelObserve();
                            } else {
                                const ClockCycle base = t_cur;
                                auto &sig = tracker.sigBuffer();
                                sig.push_back(t_cur - last_event);
                                sig.push_back(
                                    floorIdx != kNoIdx &&
                                            floorTime > base
                                        ? floorTime - base
                                        : 0);
                                for (std::size_t q = wStart - lw;
                                     q < wStart; ++q)
                                    sig.push_back(comp[q] > base
                                                      ? comp[q] - base
                                                      : 0);
                                for (const std::uint32_t a :
                                     seg.ancients)
                                    sig.push_back(comp[a] > base
                                                      ? comp[a] - base
                                                      : 0);
                                lane.pool.appendSignature(base, sig);
                                lane.bus.appendSignature(base, sig);
                                sig.push_back(end - base);
                                if (const auto skip =
                                        tracker.finishObserve(
                                            base, nullptr, 0)) {
                                    const std::size_t oldW = wStart;
                                    wStart += skip->ops;
                                    t_cur += skip->delta;
                                    end += skip->delta;
                                    last_event += skip->delta;
                                    if (floorIdx != kNoIdx)
                                        floorTime += skip->delta;
                                    lane.pool.shiftTime(skip->delta);
                                    lane.bus.shiftTime(skip->delta);
                                    for (std::size_t q = wStart - lw;
                                         q < wStart; ++q) {
                                        if (q < oldW)
                                            continue;
                                        comp[q] =
                                            comp[q - skip->ops] +
                                            skip->delta;
                                    }
                                    boundary =
                                        tracker.nextBoundary();
                                    i = wStart;
                                    wEnd = wStart;
                                    observeAtRefill = false;
                                    continue;   // next refill: no obs
                                }
                            }
                        }
                        boundary = tracker.nextBoundary();
                    }
                    observeAtRefill = true;
                    std::size_t newEnd =
                        std::min(wStart + lane.width, n);
                    // A taken branch squashes the slots behind it.
                    for (std::size_t j = wStart; j < newEnd; ++j) {
                        if (lead.isBranch(j) && lead.taken(j)) {
                            newEnd = j + 1;
                            break;
                        }
                    }
                    wEnd = newEnd;
                }

                // Issue op i: least cycle >= the lane's time cursor
                // that satisfies every constraint (exact fixpoint of
                // the scalar pass loop).
                const std::uint8_t flags = lead.flags(i);
                const FuClass fu = lead.fu(i);
                const std::uint32_t prodA = lead.prodA(i);
                const std::uint32_t prodB = lead.prodB(i);
                const std::uint32_t prevW = lead.prevWriter(i);
                const unsigned latency = tr.latency(i);
                const bool is_branch =
                    flags & DecodedTrace::kIsBranch;
                const bool produces =
                    flags & DecodedTrace::kProducesResult;
                ClockCycle earliest = 0;
                if (prodA != kNoProd)
                    earliest = std::max(earliest, comp[prodA]);
                if (prodB != kNoProd)
                    earliest = std::max(earliest, comp[prodB]);
                if (prevW != kNoProd)
                    earliest = std::max(earliest, comp[prevW]);
                if (floorIdx < i)
                    earliest = std::max(earliest, floorTime);
                ClockCycle t = std::max(t_cur, earliest);

                const unsigned unit = unsigned(i - wStart);
                std::size_t busIdx = 0;
                while (true) {
                    t = lane.pool.earliestAccept(fu, t);
                    if (produces) {
                        ClockCycle slot;
                        if (crossbar) {
                            // ResultBusSet::earliestReserve's
                            // crossbar arm: first cycle any bus is
                            // free.
                            slot = std::numeric_limits<
                                ClockCycle>::max();
                            for (std::size_t b = 0; b < numBusses;
                                 ++b) {
                                CycleReservations &rb =
                                    lane.bus.bus(b);
                                rb.advanceTo(t);
                                slot = std::min(
                                    slot, rb.nextFreeSlot(t + latency));
                            }
                        } else {
                            // Only the bus this op uses is slid.
                            busIdx = singleBus ? 0 : unit;
                            CycleReservations &rb = lane.bus.bus(busIdx);
                            rb.advanceTo(t);
                            slot = rb.nextFreeSlot(t + latency);
                        }
                        if (slot != t + latency) {
                            t = slot - latency;
                            continue;
                        }
                    }
                    break;
                }
                if (t - last_event > lane.watchdog)
                    throwWatchdog(t - last_event, lane.watchdog, i);

                const ClockCycle ready =
                    lane.pool.accept(fu, t, latency);
                if (produces) {
                    // ResultBusSet::reserve: the crossbar takes the
                    // first bus with the completion cycle free.
                    std::size_t b = crossbar ? 0 : busIdx;
                    while (!lane.bus.bus(b).tryReserve(ready)) {
                        assert(crossbar && b + 1 < numBusses &&
                               "result bus slot taken");
                        ++b;
                    }
                    end = std::max(end, ready);
                }
                comp[i] = ready;
                if (is_branch) {
                    floorIdx = i;
                    floorTime = t + lane.branchTime;
                    end = std::max(end, floorTime);
                } else {
                    end = std::max(end, ready);
                }
                last_event = t;
                // Within a window the next op may issue in the same
                // cycle (the scalar pass keeps scanning); across a
                // refill the next window starts one cycle later (the
                // scalar pass advances time before it drains).
                t_cur = i + 1 == wEnd ? t + 1 : t;
                ++i;
            }
            lane.cursor = i;
            lane.wStart = wStart;
            lane.wEnd = wEnd;
            lane.floorIdx = floorIdx;
            lane.boundary = boundary;
            lane.floorTime = floorTime;
            lane.t = t_cur;
            lane.last_event = last_event;
            lane.end = end;
            lane.observeAtRefill = observeAtRefill;
        }
    }

    for (std::size_t k = 0; k < st.size(); ++k) {
        SimResult &out = results[st[k].lane];
        out.instructions = n;
        out.cycles = st[k].end;
        out.steadyOpsSkipped = trackers[k].opsSkipped();
    }
}

// ---------------------------------------------------------------
// Dispatch: group compatible lanes, run kernels, fall back scalar.
// ---------------------------------------------------------------

enum class LaneKind
{
    kSimple,
    kScoreboard,
    kMultiInOrder,
    kScalar,
};

LaneKind
classify(const BatchLane &lane)
{
    if (lane.sim == nullptr || lane.trace == nullptr)
        throw ConfigError("runBatch: null lane");
    // Audited runs need the instrumented instantiation: they run
    // alone.
    if (lane.sim->auditSink() != nullptr)
        return LaneKind::kScalar;
    // The single-issue lanes are the simulators' own lane state, so
    // every organization, predictor and unit count is covered.
    if (dynamic_cast<const SimpleSim *>(lane.sim) != nullptr)
        return LaneKind::kSimple;
    if (dynamic_cast<const ScoreboardSim *>(lane.sim) != nullptr)
        return LaneKind::kScoreboard;
    // In-order multiple-issue lanes with an armed predictor (the
    // ",btfn"/",oracle" aliases included) carry wrong-path and squash
    // state the fixpoint does not model: scalar path.
    if (lane.sim->config().predictor.armed())
        return LaneKind::kScalar;
    if (const auto *mi =
            dynamic_cast<const MultiIssueSim *>(lane.sim)) {
        if (!mi->org().outOfOrder && mi->org().width <= 64 &&
            mi->org().fuCopies == 1 && mi->org().memPorts == 1 &&
            !lane.trace->hasVector())
            return LaneKind::kMultiInOrder;
    }
    return LaneKind::kScalar;
}

std::atomic<std::uint64_t> g_batches{ 0 };
std::atomic<std::uint64_t> g_lanes{ 0 };
std::atomic<std::uint64_t> g_lockstep_lanes{ 0 };
std::atomic<std::uint64_t> g_scalar_lanes{ 0 };

} // namespace

BatchTelemetry
batchTelemetry()
{
    BatchTelemetry t;
    t.batches = g_batches.load(std::memory_order_relaxed);
    t.lanes = g_lanes.load(std::memory_order_relaxed);
    t.lockstepLanes = g_lockstep_lanes.load(std::memory_order_relaxed);
    t.scalarLanes = g_scalar_lanes.load(std::memory_order_relaxed);
    return t;
}

bool
structurallyIdentical(const DecodedTrace &a, const DecodedTrace &b)
{
    // Views of one shared body (every configuration of a library
    // loop) are identical by construction.
    if (&a.body() == &b.body())
        return true;
    const std::size_t n = a.size();
    if (n != b.size() || a.hasVector() != b.hasVector())
        return false;
    for (std::size_t i = 0; i < n; ++i) {
        if (a.op(i) != b.op(i) || a.fu(i) != b.fu(i) ||
            a.flags(i) != b.flags(i) || a.dst(i) != b.dst(i) ||
            a.srcA(i) != b.srcA(i) || a.srcB(i) != b.srcB(i) ||
            a.prodA(i) != b.prodA(i) || a.prodB(i) != b.prodB(i) ||
            a.prevWriter(i) != b.prevWriter(i))
            return false;
    }
    return true;
}

BatchOutcome
runBatch(const std::vector<BatchLane> &lanes)
{
    BatchOutcome out;
    out.results.resize(lanes.size());

    // Group lockstep-capable lanes by (kind, structural trace
    // family).  Groups of one are not worth a kernel: they take the
    // scalar path, as do all uncovered lanes.
    struct Group
    {
        LaneKind kind;
        const DecodedTrace *leader;
        std::vector<std::size_t> members;
    };
    std::vector<Group> groups;
    std::vector<std::size_t> scalar;

    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const LaneKind kind = classify(lanes[i]);
        if (kind == LaneKind::kScalar) {
            scalar.push_back(i);
            continue;
        }
        Group *home = nullptr;
        for (Group &g : groups) {
            if (g.kind == kind &&
                structurallyIdentical(*g.leader, *lanes[i].trace)) {
                home = &g;
                break;
            }
        }
        if (home == nullptr) {
            groups.push_back(Group{ kind, lanes[i].trace, {} });
            home = &groups.back();
        }
        home->members.push_back(i);
    }

    for (const Group &g : groups) {
        if (g.members.size() < 2) {
            scalar.insert(scalar.end(), g.members.begin(),
                          g.members.end());
            continue;
        }
        switch (g.kind) {
        case LaneKind::kSimple:
            runLaneLockstep<SimpleSim>(lanes, g.members, out.results);
            break;
        case LaneKind::kScoreboard:
            runLaneLockstep<ScoreboardSim>(lanes, g.members,
                                           out.results);
            break;
        case LaneKind::kMultiInOrder:
            runMultiIssueLockstep(lanes, g.members, out.results);
            break;
        case LaneKind::kScalar:
            break;      // unreachable
        }
        out.lockstepLanes += g.members.size();
    }

    for (const std::size_t i : scalar) {
        out.results[i] = lanes[i].sim->run(*lanes[i].trace);
        ++out.scalarLanes;
    }

    if (!lanes.empty()) {
        g_batches.fetch_add(1, std::memory_order_relaxed);
        g_lanes.fetch_add(lanes.size(), std::memory_order_relaxed);
        g_lockstep_lanes.fetch_add(out.lockstepLanes,
                                   std::memory_order_relaxed);
        g_scalar_lanes.fetch_add(out.scalarLanes,
                                 std::memory_order_relaxed);
    }
    return out;
}

} // namespace mfusim
