/**
 * @file
 * Batched lockstep sweep kernel implementation.
 *
 * Each kernel below is a line-for-line mirror of its scalar
 * simulator's state transitions (simple_sim.cc, scoreboard_sim.cc,
 * multi_issue_sim.cc): lanes never read each other's state, so any
 * interleaving of per-lane progress yields bit-identical results,
 * and the kernels are free to schedule lanes purely for locality.
 * Any behavioural deviation from the scalar path is a bug — the
 * bit-identity tests compare every field of every SimResult.
 *
 * Three kernel-only engineering choices keep the per-op-lane cost
 * well under the scalar path's:
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
 *  - **Inline resource state.**  The lanes do not carry FuPool /
 *    ResultBusSet objects; they carry the raw words those classes
 *    wrap (per-class unit-free cycles, the memory port's free cycle,
 *    per-bus 64-cycle reservation word + base) and apply the exact
 *    same transitions inline — the scalar path pays several
 *    cross-TU calls per op for the same arithmetic.  Buses are also
 *    advanced lazily, per touched bus, instead of sliding the whole
 *    set every producing op; sliding composes, so the state a
 *    signature observes is bit-identical either way.  This is why
 *    lanes with replicated units (fuCopies/memPorts > 1) fall back
 *    to the scalar path: the inline state hard-codes the paper's
 *    one-of-each machine.
 *
 *  - **Out-of-struct trackers.**  A steady-state tracker's ring
 *    buffer is kilobytes of boundary history touched only at
 *    segment boundaries; the trackers live in a vector parallel to
 *    the lane states so the per-op state of every lane fits in a
 *    handful of cache lines.
 */

#include "mfusim/sim/batched.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
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
// Inline resource state: the exact transitions of FunctionalUnit,
// MemoryPort (fu_pool.hh) and CycleReservations (result_bus.hh),
// flattened into lane-local words.  Signature blocks reproduce
// FuPool::appendSignature / ResultBusSet::appendSignature for the
// one-of-each machine (fuCopies == 1, memPorts == 1) byte for byte.
// ---------------------------------------------------------------

struct InlinePool
{
    FuDiscipline fuD;
    MemDiscipline memD;
    ClockCycle memLat;
    std::array<ClockCycle, kNumFuClasses> unitFree{};
    ClockCycle portFree = 0;

    InlinePool(FuDiscipline f, MemDiscipline m, unsigned lat)
        : fuD(f), memD(m), memLat(lat)
    {
    }

    static bool
    usesPool(FuClass fu)
    {
        return fu != FuClass::kTransfer && fu != FuClass::kBranch;
    }

    ClockCycle
    earliestAccept(FuClass fu, ClockCycle when) const
    {
        if (!usesPool(fu))
            return when;
        const ClockCycle free = fu == FuClass::kMemory
                                    ? portFree
                                    : unitFree[std::size_t(fu)];
        return free > when ? free : when;
    }

    ClockCycle
    accept(FuClass fu, ClockCycle when, unsigned latency,
           unsigned occupancy = 1)
    {
        if (!usesPool(fu))
            return when + latency + occupancy - 1;
        if (fu == FuClass::kMemory) {
            portFree = memD == MemDiscipline::kInterleaved
                           ? when + occupancy
                           : when + memLat + occupancy - 1;
            return when + memLat + occupancy - 1;
        }
        unitFree[std::size_t(fu)] =
            fuD == FuDiscipline::kSegmented
                ? when + occupancy
                : when + std::max<ClockCycle>(latency, occupancy);
        return when + latency + occupancy - 1;
    }

    void
    shiftTime(ClockCycle delta)
    {
        for (ClockCycle &f : unitFree)
            f += delta;
        portFree += delta;
    }

    // Mirrors FuPool::appendSignature: every unit in class order
    // (unused classes stay 0), then the port.
    void
    appendSignature(ClockCycle base,
                    std::vector<std::uint64_t> &out) const
    {
        for (const ClockCycle f : unitFree)
            out.push_back(f > base ? f - base : 0);
        out.push_back(portFree > base ? portFree - base : 0);
    }
};

struct InlineBusSet
{
    // One bus: the 64-cycle reservation window and its base cycle,
    // kept adjacent so a bus touch is one cache line.
    struct Slot
    {
        ClockCycle base = 0;
        std::uint64_t bits = 0;
    };

    BusKind kind;
    std::vector<Slot> slots;

    InlineBusSet(BusKind k, unsigned numUnits)
        : kind(k), slots(k == BusKind::kSingle ? 1 : numUnits)
    {
    }

    // CycleReservations::advanceTo.  Lazy per-bus: sliding a window
    // forward in one step or many yields the same (base, bits).
    void
    advance(std::size_t b, ClockCycle now)
    {
        Slot &s = slots[b];
        if (now <= s.base)
            return;
        const ClockCycle d = now - s.base;
        s.bits = d >= 64 ? 0 : s.bits >> d;
        s.base = now;
    }

    // CycleReservations::nextFreeSlot; the bus must have been
    // advanced to the current issue time first.
    ClockCycle
    nextFreeSlot(std::size_t b, ClockCycle from) const
    {
        const Slot &s = slots[b];
        if (from < s.base || from >= s.base + 64)
            return from;
        return from + std::countr_one(s.bits >> (from - s.base));
    }

    void
    set(std::size_t b, ClockCycle t)
    {
        slots[b].bits |= std::uint64_t(1) << (t - slots[b].base);
    }

    void
    shiftTime(ClockCycle delta)
    {
        for (Slot &s : slots)
            s.base += delta;
    }

    // Mirrors ResultBusSet::appendSignature.
    void
    appendSignature(ClockCycle sigBase,
                    std::vector<std::uint64_t> &out)
    {
        for (std::size_t b = 0; b < slots.size(); ++b) {
            advance(b, sigBase);
            out.push_back(slots[b].bits);
        }
    }
};

// ---------------------------------------------------------------
// Simple Machine: the whole per-lane state is the end watermark.
// ---------------------------------------------------------------

struct SimpleLaneState
{
    std::size_t lane;               // index into the batch
    const DecodedTrace *trace;
    ClockCycle end = 0;
    std::size_t boundary;
    std::size_t cursor = 0;         // next op this lane executes

    SimpleLaneState(std::size_t laneIdx, const DecodedTrace &t,
                    const SteadyStateTracker &tracker)
        : lane(laneIdx), trace(&t), boundary(tracker.nextBoundary())
    {
    }
};

void
runSimpleLockstep(const std::vector<BatchLane> &lanes,
                  const std::vector<std::size_t> &members,
                  std::vector<SimResult> &results)
{
    const std::size_t n = lanes[members.front()].trace->size();
    const bool steady = steadyStateEnabled();

    std::vector<SimpleLaneState> st;
    std::vector<SteadyStateTracker> trackers;
    st.reserve(members.size());
    trackers.reserve(members.size());
    for (const std::size_t m : members) {
        const DecodedTrace &t = *lanes[m].trace;
        checkDecodedConfig(t, lanes[m].sim->config());
        trackers.emplace_back(steady ? &t.periodicity() : nullptr,
                              t.size());
        st.emplace_back(m, t, trackers.back());
    }

    for (std::size_t b0 = 0; b0 < n; b0 += kOpBlock) {
        const std::size_t b1 = std::min(b0 + kOpBlock, n);
        for (std::size_t li = 0; li < st.size(); ++li) {
            SimpleLaneState &lane = st[li];
            if (lane.cursor >= b1)
                continue;       // extrapolated past this block
            SteadyStateTracker &tracker = trackers[li];
            const DecodedTrace &tr = *lane.trace;
            std::size_t i = lane.cursor;
            std::size_t boundary = lane.boundary;
            ClockCycle end = lane.end;
            while (i < b1) {
                if (i == boundary) {
                    if (tracker.beginObserve(i)) {
                        tracker.sigBuffer();    // state is `end`
                        if (const auto skip = tracker.finishObserve(
                                end, nullptr, 0)) {
                            i += skip->ops;
                            end += skip->delta;
                        }
                    }
                    boundary = tracker.nextBoundary();
                }
                end += tr.latency(i);
                end += tr.occupancy(i) - 1;     // one elem per cycle
                ++i;
            }
            lane.cursor = i;
            lane.boundary = boundary;
            lane.end = end;
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
// Scoreboard: per-lane register ready times, pool, bus, stalls.
// ---------------------------------------------------------------

struct ScoreboardLaneState
{
    std::size_t lane;
    const DecodedTrace *trace;
    // The organization/config knobs the issue loop reads, copied
    // out flat so the loop never chases the full config structs.
    bool vectorChaining;
    bool modelResultBus;
    ClockCycle branchTime;

    std::array<ClockCycle, kNumRegs> regReady{};
    std::array<ClockCycle, kNumRegs> chainReady{};
    InlinePool pool;
    InlineBusSet bus;
    ClockCycle issue_cursor = 0;
    ClockCycle end = 0;
    StallBreakdown stalls;
    std::size_t boundary;
    std::size_t cursor = 0;

    ScoreboardLaneState(std::size_t laneIdx, const DecodedTrace &t,
                        const ScoreboardConfig &o,
                        const MachineConfig &c,
                        const SteadyStateTracker &tracker)
        : lane(laneIdx), trace(&t), vectorChaining(o.vectorChaining),
          modelResultBus(o.modelResultBus), branchTime(c.branchTime),
          pool(o.fuDiscipline, o.memDiscipline, c.memLatency),
          bus(BusKind::kSingle, 1), boundary(tracker.nextBoundary())
    {
    }
};

void
runScoreboardLockstep(const std::vector<BatchLane> &lanes,
                      const std::vector<std::size_t> &members,
                      std::vector<SimResult> &results)
{
    const DecodedTrace &lead = *lanes[members.front()].trace;
    const std::size_t n = lead.size();
    const bool steady = steadyStateEnabled();

    std::vector<ScoreboardLaneState> st;
    std::vector<SteadyStateTracker> trackers;
    st.reserve(members.size());
    trackers.reserve(members.size());
    for (const std::size_t m : members) {
        const auto *sim =
            static_cast<const ScoreboardSim *>(lanes[m].sim);
        const DecodedTrace &t = *lanes[m].trace;
        checkDecodedConfig(t, sim->config());
        trackers.emplace_back(steady ? &t.periodicity() : nullptr,
                              t.size());
        st.emplace_back(m, t, sim->org(), sim->config(),
                        trackers.back());
    }

    for (std::size_t b0 = 0; b0 < n; b0 += kOpBlock) {
        const std::size_t b1 = std::min(b0 + kOpBlock, n);
        for (std::size_t li = 0; li < st.size(); ++li) {
            ScoreboardLaneState &lane = st[li];
            if (lane.cursor >= b1)
                continue;
            SteadyStateTracker &tracker = trackers[li];
            const DecodedTrace &tr = *lane.trace;
            std::size_t i = lane.cursor;
            std::size_t boundary = lane.boundary;
            ClockCycle issue_cursor = lane.issue_cursor;
            ClockCycle end = lane.end;
            StallBreakdown stalls = lane.stalls;
            while (i < b1) {
                if (i == boundary) {
                    if (tracker.beginObserve(i)) {
                        const ClockCycle base = issue_cursor;
                        auto &sig = tracker.sigBuffer();
                        for (const RegId r : tr.writtenRegs()) {
                            if (lane.regReady[r] > base) {
                                sig.push_back(r);
                                sig.push_back(lane.regReady[r] -
                                              base);
                            }
                        }
                        sig.push_back(sig.size());
                        if (tr.hasVector()) {
                            for (const RegId r : tr.writtenRegs()) {
                                if (lane.chainReady[r] > base) {
                                    sig.push_back(r);
                                    sig.push_back(
                                        lane.chainReady[r] - base);
                                }
                            }
                            sig.push_back(sig.size());
                        }
                        lane.pool.appendSignature(base, sig);
                        lane.bus.appendSignature(base, sig);
                        sig.push_back(end - base);
                        const std::uint64_t counters[5] = {
                            stalls.raw, stalls.waw,
                            stalls.structural, stalls.resultBus,
                            stalls.branch
                        };
                        if (const auto skip = tracker.finishObserve(
                                base, counters, 5)) {
                            i += skip->ops;
                            issue_cursor += skip->delta;
                            end += skip->delta;
                            for (ClockCycle &r : lane.regReady)
                                r += skip->delta;
                            for (ClockCycle &r : lane.chainReady)
                                r += skip->delta;
                            lane.pool.shiftTime(skip->delta);
                            lane.bus.shiftTime(skip->delta);
                            stalls.raw += skip->counters[0];
                            stalls.waw += skip->counters[1];
                            stalls.structural += skip->counters[2];
                            stalls.resultBus += skip->counters[3];
                            stalls.branch += skip->counters[4];
                        }
                    }
                    boundary = tracker.nextBoundary();
                }

                // Structural fields are lane-invariant (verified by
                // the grouping) and read from the leader so every
                // lane's block pass hits the same cache lines;
                // latency and occupancy are the sweep axis and come
                // from the lane's own trace.
                const std::uint8_t flags = lead.flags(i);
                const RegId srcA = lead.srcA(i);
                const RegId srcB = lead.srcB(i);
                const RegId dst = lead.dst(i);

                if (flags & DecodedTrace::kIsBranch) {
                    // Lanes carry no predictor: every branch blocks.
                    const ClockCycle cond_ready =
                        srcA != kNoReg ? lane.regReady[srcA] : 0;
                    const ClockCycle t =
                        std::max(issue_cursor, cond_ready);
                    stalls.branch +=
                        (t - issue_cursor) + (lane.branchTime - 1);
                    issue_cursor = t + lane.branchTime;
                    end = std::max(end, t + lane.branchTime);
                    ++i;
                    continue;
                }

                const unsigned latency = tr.latency(i);
                const unsigned occupancy = tr.occupancy(i);
                const FuClass fu = lead.fu(i);
                const bool vector_op =
                    flags & DecodedTrace::kIsVector;
                const bool chain = vector_op && lane.vectorChaining;
                ClockCycle t = issue_cursor;
                for (const RegId src : { srcA, srcB }) {
                    if (src == kNoReg)
                        continue;
                    const bool v_src = classOf(src) == RegClass::V;
                    t = std::max(t, chain && v_src
                                        ? lane.chainReady[src]
                                        : lane.regReady[src]);
                }
                stalls.raw += t - issue_cursor;
                ClockCycle mark = t;
                if (dst != kNoReg)
                    t = std::max(t, lane.regReady[dst]);
                stalls.waw += t - mark;

                const bool needs_bus = lane.modelResultBus &&
                    (flags & DecodedTrace::kProducesResult) &&
                    !vector_op;
                while (true) {
                    const ClockCycle at_fu =
                        lane.pool.earliestAccept(fu, t);
                    stalls.structural += at_fu - t;
                    t = at_fu;
                    if (needs_bus) {
                        lane.bus.advance(0, t);
                        const ClockCycle slot =
                            lane.bus.nextFreeSlot(0, t + latency);
                        if (slot != t + latency) {
                            stalls.resultBus += slot - (t + latency);
                            t = slot - latency;
                            continue;
                        }
                    }
                    break;
                }

                const ClockCycle ready =
                    lane.pool.accept(fu, t, latency, occupancy);
                if (needs_bus)
                    lane.bus.set(0, ready);
                if (dst != kNoReg) {
                    lane.regReady[dst] = ready;
                    lane.chainReady[dst] =
                        occupancy > 1 ? t + latency + 1 : ready;
                }
                issue_cursor = t + 1;
                end = std::max(end, ready);
                ++i;
            }
            lane.cursor = i;
            lane.boundary = boundary;
            lane.issue_cursor = issue_cursor;
            lane.end = end;
            lane.stalls = stalls;
        }
    }

    for (std::size_t k = 0; k < st.size(); ++k) {
        SimResult &out = results[st[k].lane];
        out.instructions = n;
        out.hasStalls = true;
        out.cycles = st[k].end;
        out.stalls = st[k].stalls;
        out.steadyOpsSkipped = trackers[k].opsSkipped();
    }
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
    // Flat copies of the organization/config knobs the issue loop
    // reads (see ScoreboardLaneState).
    unsigned width;
    ClockCycle branchTime;
    ClockCycle watchdog;

    std::vector<ClockCycle> completion;
    InlinePool pool;
    InlineBusSet bus;
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
                        const SteadyStateTracker &tracker)
        : lane(laneIdx), trace(&t_), width(o.width),
          branchTime(c.branchTime),
          watchdog(o.watchdogCycles > 0 ? o.watchdogCycles
                                        : kDefaultWatchdogCycles),
          completion(t_.size(), 0),
          pool(FuDiscipline::kSegmented, MemDiscipline::kInterleaved,
               c.memLatency),
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
                        trackers.back());
    }

    for (std::size_t b0 = 0; b0 < n; b0 += kOpBlock) {
        const std::size_t b1 = std::min(b0 + kOpBlock, n);
        for (std::size_t li = 0; li < st.size(); ++li) {
            MultiIssueLaneState &lane = st[li];
            if (lane.cursor >= b1)
                continue;
            SteadyStateTracker &tracker = trackers[li];
            const DecodedTrace &tr = *lane.trace;
            ClockCycle *const comp = lane.completion.data();
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
                        if (lane.bus.kind == BusKind::kCrossbar) {
                            // Mirror of ResultBusSet::
                            // earliestReserve's crossbar arm: first
                            // cycle any bus is free.
                            for (std::size_t b = 0;
                                 b < lane.bus.slots.size(); ++b)
                                lane.bus.advance(b, t);
                            slot = lane.bus.nextFreeSlot(
                                0, t + latency);
                            for (std::size_t b = 1;
                                 b < lane.bus.slots.size(); ++b)
                                slot = std::min(
                                    slot, lane.bus.nextFreeSlot(
                                              b, t + latency));
                        } else {
                            busIdx =
                                lane.bus.kind == BusKind::kSingle
                                    ? 0
                                    : unit;
                            lane.bus.advance(busIdx, t);
                            slot = lane.bus.nextFreeSlot(
                                busIdx, t + latency);
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
                    if (lane.bus.kind == BusKind::kCrossbar) {
                        // Mirror of ResultBusSet::reserve: first bus
                        // with the completion cycle free.
                        for (std::size_t b = 0;
                             b < lane.bus.slots.size(); ++b) {
                            const InlineBusSet::Slot &s =
                                lane.bus.slots[b];
                            if (!((s.bits >> (ready - s.base)) & 1)) {
                                lane.bus.set(b, ready);
                                break;
                            }
                        }
                    } else {
                        lane.bus.set(busIdx, ready);
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
    // Audited runs need the complete event stream: scalar path.
    if (lane.sim->auditSink() != nullptr)
        return LaneKind::kScalar;
    // Lanes with an armed predictor (the ",btfn"/",oracle" aliases
    // included) carry prediction and squash state the lockstep
    // kernels do not model: scalar path.
    if (lane.sim->config().predictor.armed())
        return LaneKind::kScalar;
    if (dynamic_cast<const SimpleSim *>(lane.sim) != nullptr)
        return LaneKind::kSimple;
    if (const auto *sb =
            dynamic_cast<const ScoreboardSim *>(lane.sim)) {
        // The inline pool state hard-codes the paper's one-of-each
        // machine; replicated-unit extensions take the scalar path.
        if (sb->org().fuCopies == 1 && sb->org().memPorts == 1)
            return LaneKind::kScoreboard;
        return LaneKind::kScalar;
    }
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
            runSimpleLockstep(lanes, g.members, out.results);
            break;
        case LaneKind::kScoreboard:
            runScoreboardLockstep(lanes, g.members, out.results);
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
