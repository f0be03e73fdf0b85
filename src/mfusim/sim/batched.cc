/**
 * @file
 * Batched lockstep sweep implementation.
 *
 * No machine has a kernel here.  SimpleSim, ScoreboardSim and
 * MultiIssueSim each define their lane state and one advance()
 * function; run() advances one lane over the whole trace, and
 * runLaneLockstep() advances a group's lanes block by block through
 * the same function.  Lanes never read each other's state, so any
 * interleaving of per-lane progress yields bit-identical results,
 * and lanes are scheduled purely for locality:
 *
 *  - **Block-level lockstep.**  Ops are processed in blocks of
 *    kOpBlock: each lane runs a whole block with its hot scalars
 *    (cycle cursors, watermarks) in locals — the compiler keeps them
 *    in registers across hundreds of ops — and the block's trace
 *    words stay warm in cache from the previous lane's visit.
 *    Per-op lockstep would pay a lane-state reload and store for
 *    every op of every lane; per-block lockstep pays it once per
 *    block.  A lane that extrapolates past the block (steady-state
 *    skip), or whose last window reaches past it, simply leaves
 *    early and is passed over by the blocks it crossed.
 *
 *  - **One scratch block.**  The multiple-issue lanes' per-op
 *    completion times share one group-sized allocation.
 */

#include "mfusim/sim/batched.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>

#include "mfusim/core/error.hh"
#include "mfusim/sim/multi_issue_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/simple_sim.hh"

namespace mfusim
{

namespace
{

/** Ops per lockstep block: small enough that a block's trace words
 *  stay cache-resident across all lanes, large enough to amortize
 *  the per-lane state spill/reload at block edges. */
constexpr std::size_t kOpBlock = 256;

// ---------------------------------------------------------------
// Every covered machine: the simulator's own lane transition,
// advanced block by block across the group.
// ---------------------------------------------------------------

template <class Sim>
void
runLaneLockstep(const std::vector<BatchLane> &lanes,
                const std::vector<std::size_t> &members,
                std::vector<SimResult> &results)
{
    const std::size_t n = lanes[members.front()].trace->size();
    // The multiple-issue lanes' completion times, in one block.
    // Per-lane arrays each fall under the allocator's adaptive mmap
    // threshold, so the heap top they free is trimmed after every
    // batch and faults back in on the next; one group-sized block
    // lets the threshold adapt to the batch's working set.  calloc()
    // leaves a freshly mapped block untouched (the kernel zeroes it),
    // so a cold process faults in only the pages its lanes write —
    // a steady-state skip writes few.
    constexpr bool kCompletion = std::is_constructible_v<
        typename Sim::Lane, const Sim &, const DecodedTrace &,
        ClockCycle *>;
    const std::unique_ptr<ClockCycle, decltype(&std::free)> completion(
        kCompletion ? static_cast<ClockCycle *>(std::calloc(
                          members.size() * n, sizeof(ClockCycle)))
                    : nullptr,
        &std::free);
    if (kCompletion && n > 0 && completion == nullptr)
        throw std::bad_alloc();
    std::vector<const Sim *> sims;
    std::vector<typename Sim::Lane> st;
    sims.reserve(members.size());
    st.reserve(members.size());
    for (const std::size_t m : members) {
        sims.push_back(static_cast<const Sim *>(lanes[m].sim));
        if constexpr (kCompletion) {
            st.emplace_back(*sims.back(), *lanes[m].trace,
                            completion.get() + st.size() * n);
        } else {
            st.emplace_back(*sims.back(), *lanes[m].trace);
        }
    }
    for (std::size_t b0 = 0; b0 < n; b0 += kOpBlock) {
        const std::size_t b1 = std::min(b0 + kOpBlock, n);
        for (std::size_t k = 0; k < st.size(); ++k) {
            if (st[k].cursor < b1)
                sims[k]->template advance<false>(st[k], b1);
        }
    }
    for (std::size_t k = 0; k < st.size(); ++k)
        results[members[k]] = Sim::result(st[k]);
}

// ---------------------------------------------------------------
// Dispatch: group compatible lanes, advance them, fall back scalar.
// ---------------------------------------------------------------

enum class LaneKind
{
    kSimple,
    kScoreboard,
    kMultiIssue,
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
    // The lanes are the simulators' own lane state, so every
    // organization, predictor and unit count is covered.
    if (dynamic_cast<const SimpleSim *>(lane.sim) != nullptr)
        return LaneKind::kSimple;
    if (dynamic_cast<const ScoreboardSim *>(lane.sim) != nullptr)
        return LaneKind::kScoreboard;
    if (dynamic_cast<const MultiIssueSim *>(lane.sim) != nullptr)
        return LaneKind::kMultiIssue;
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
    // family).  Groups of one gain nothing from lockstep: they take the
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
        case LaneKind::kMultiIssue:
            runLaneLockstep<MultiIssueSim>(lanes, g.members,
                                           out.results);
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
