/**
 * @file
 * Unrolled-kernel tests: functional equivalence at every factor,
 * branch-count accounting, and the performance effects the paper
 * predicts for unrolling.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "mfusim/codegen/livermore.hh"
#include "mfusim/dataflow/limits.hh"
#include "mfusim/sim/ruu_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"

namespace mfusim
{
namespace
{

class Unrolled
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    int loopId() const { return std::get<0>(GetParam()); }
    int factor() const { return std::get<1>(GetParam()); }
};

TEST_P(Unrolled, MatchesReference)
{
    const Kernel kernel = buildUnrolledKernel(loopId(), factor());
    const KernelRun run = runKernel(kernel);
    EXPECT_GT(run.checkedCells, 0u);
    EXPECT_EQ(run.mismatches, 0u)
        << "loop " << loopId() << " x" << factor();
}

TEST_P(Unrolled, BranchCountDropsWithFactor)
{
    const Kernel kernel = buildUnrolledKernel(loopId(), factor());
    const KernelRun run = runKernel(kernel);
    const TraceStats stats = run.trace.stats();
    const Kernel base = buildUnrolledKernel(loopId(), 1);
    const TraceStats base_stats = runKernel(base).trace.stats();
    // Unrolling by f divides the dynamic branch count by ~f.
    EXPECT_LE(stats.branches,
              base_stats.branches / std::uint64_t(factor()) + 8)
        << "loop " << loopId() << " x" << factor();
    // And removes loop-overhead instructions overall.
    if (factor() > 1) {
        EXPECT_LT(stats.totalOps, base_stats.totalOps);
    }
}

TEST_P(Unrolled, FactorOneMatchesCanonicalKernel)
{
    const Kernel canonical = buildKernel(loopId());
    const Kernel rolled = buildUnrolledKernel(loopId(), 1);
    const KernelRun a = runKernel(canonical);
    const KernelRun b = runKernel(rolled);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    // Op for op: a kernel that only matched in length (the same ops
    // in another order) would time differently.
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        const DynOp &x = a.trace[i];
        const DynOp &y = b.trace[i];
        ASSERT_TRUE(x.op == y.op && x.dst == y.dst && x.srcA == y.srcA &&
                    x.srcB == y.srcB && x.staticIdx == y.staticIdx &&
                    x.taken == y.taken && x.backward == y.backward &&
                    x.vl == y.vl)
            << "loop " << loopId() << " differs at op " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    LoopsAndFactors, Unrolled,
    ::testing::Combine(::testing::ValuesIn(unrollableLoopIds()),
                       ::testing::Values(1, 2, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &info) {
        return "LL" + std::to_string(std::get<0>(info.param)) + "_x" +
            std::to_string(std::get<1>(info.param));
    });

TEST(UnrolledEffects, UnrollingRaisesTheDataflowLimit)
{
    // The paper: "loop unrolling will in some cases shorten the
    // critical path because some of the program's branches are
    // removed."  For the parallel loop LL1 the limit rises steeply.
    const MachineConfig cfg = configM11BR5();
    const double base =
        computeLimits(traceKernel(1), cfg).pseudoRate;
    const Kernel k8 = buildUnrolledKernel(1, 8);
    const double unrolled =
        computeLimits(runKernel(k8).trace, cfg).pseudoRate;
    EXPECT_GT(unrolled, base * 2.0);
}

TEST(UnrolledEffects, RecurrenceLimitBarelyMoves)
{
    // LL5's critical path is the data recurrence, not the branch
    // chain, so unrolling gains only the removed overhead ops.
    const MachineConfig cfg = configM11BR5();
    const Kernel k1 = buildUnrolledKernel(5, 1);
    const Kernel k8 = buildUnrolledKernel(5, 8);
    const double base =
        computeLimits(runKernel(k1).trace, cfg).pseudoCycles;
    const double unrolled =
        computeLimits(runKernel(k8).trace, cfg).pseudoCycles;
    // Critical path length barely changes (within 25%).
    EXPECT_GT(unrolled, base * 0.75);
}

TEST(UnrolledEffects, RuuExploitsUnrolledParallelism)
{
    // Unrolled LL1 bodies reuse the same S registers, so the
    // blocking machines stay WAW-bound while the RUU renames and
    // overlaps them.
    const MachineConfig cfg = configM11BR5();
    const Kernel k4 = buildUnrolledKernel(1, 4);
    const DynTrace trace = runKernel(k4).trace;

    ScoreboardSim cray(ScoreboardConfig::crayLike(), cfg);
    RuuSim ruu({ 4, 48, BusKind::kPerUnit }, cfg);
    const double cray_rate = cray.run(trace).issueRate();
    const double ruu_rate = ruu.run(trace).issueRate();
    EXPECT_GT(ruu_rate, cray_rate * 1.8);
}

TEST(UnrolledEffects, InvalidArgumentsRejected)
{
    EXPECT_THROW(buildUnrolledKernel(2, 4), std::invalid_argument);
    EXPECT_THROW(buildUnrolledKernel(1, 3), std::invalid_argument);
    EXPECT_THROW(buildUnrolledKernel(1, 16), std::invalid_argument);
}

} // namespace
} // namespace mfusim
