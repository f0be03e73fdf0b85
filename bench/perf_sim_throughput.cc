/**
 * @file
 * google-benchmark microbenchmarks of simulator throughput
 * (simulated instructions per wall-clock second).  Not a paper
 * table; this guards the simulators' own performance so the full
 * table sweeps stay fast.
 *
 * Each simulator is measured on two paths:
 *
 *  - BM_<sim>: the canonical sweep path — the trace is pre-decoded
 *    once (TraceLibrary's decoded cache) and the timing loop runs on
 *    the DecodedTrace arrays; this is what every table driver does.
 *  - BM_<sim>DynTrace: the one-shot path — run(DynTrace) decodes per
 *    call; what a caller pays when it times a trace exactly once.
 *
 * BM_DecodeTrace isolates the decode cost itself (body and view);
 * BM_DecodeView the per-configuration view over an existing body.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "mfusim/codegen/livermore.hh"
#include "mfusim/core/decoded_trace.hh"
#include "mfusim/dataflow/limits.hh"
#include "mfusim/harness/experiment.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/sim/batched.hh"
#include "mfusim/sim/multi_issue_sim.hh"
#include "mfusim/sim/ruu_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/simple_sim.hh"
#include "mfusim/sim/steady_state.hh"

namespace
{

using namespace mfusim;

const DynTrace &
bigTrace()
{
    // LL6 is the longest trace (~17k dynamic ops).
    return TraceLibrary::instance().trace(6);
}

const DecodedTrace &
bigDecoded()
{
    return TraceLibrary::instance().decoded(6, configM11BR5());
}

// ---- canonical pre-decoded path ---------------------------------

void
BM_SimpleSim(benchmark::State &state)
{
    const DecodedTrace &trace = bigDecoded();
    SimpleSim sim(configM11BR5());
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.run(trace).cycles);
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(trace.size()));
}
BENCHMARK(BM_SimpleSim);

void
BM_ScoreboardCrayLike(benchmark::State &state)
{
    const DecodedTrace &trace = bigDecoded();
    for (auto _ : state) {
        ScoreboardSim sim(ScoreboardConfig::crayLike(),
                          configM11BR5());
        benchmark::DoNotOptimize(sim.run(trace).cycles);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(trace.size()));
}
BENCHMARK(BM_ScoreboardCrayLike);

void
BM_MultiIssue(benchmark::State &state)
{
    const DecodedTrace &trace = bigDecoded();
    const unsigned width = unsigned(state.range(0));
    const bool ooo = state.range(1) != 0;
    for (auto _ : state) {
        MultiIssueSim sim({ width, ooo, BusKind::kPerUnit, false },
                          configM11BR5());
        benchmark::DoNotOptimize(sim.run(trace).cycles);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(trace.size()));
}
BENCHMARK(BM_MultiIssue)
    ->Args({ 4, 0 })
    ->Args({ 4, 1 })
    ->Args({ 8, 1 });

void
BM_Ruu(benchmark::State &state)
{
    const DecodedTrace &trace = bigDecoded();
    const unsigned width = unsigned(state.range(0));
    const unsigned size = unsigned(state.range(1));
    for (auto _ : state) {
        RuuSim sim({ width, size, BusKind::kPerUnit },
                   configM11BR5());
        benchmark::DoNotOptimize(sim.run(trace).cycles);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(trace.size()));
}
BENCHMARK(BM_Ruu)->Args({ 1, 10 })->Args({ 4, 100 });

void
BM_DataflowLimits(benchmark::State &state)
{
    const DecodedTrace &trace = bigDecoded();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            computeLimits(trace).actualRate);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(trace.size()));
}
BENCHMARK(BM_DataflowLimits);

// ---- one-shot run(DynTrace) path (decode per call) ---------------

void
BM_SimpleSimDynTrace(benchmark::State &state)
{
    const DynTrace &trace = bigTrace();
    SimpleSim sim(configM11BR5());
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.run(trace).cycles);
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(trace.size()));
}
BENCHMARK(BM_SimpleSimDynTrace);

void
BM_ScoreboardCrayLikeDynTrace(benchmark::State &state)
{
    const DynTrace &trace = bigTrace();
    for (auto _ : state) {
        ScoreboardSim sim(ScoreboardConfig::crayLike(),
                          configM11BR5());
        benchmark::DoNotOptimize(sim.run(trace).cycles);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(trace.size()));
}
BENCHMARK(BM_ScoreboardCrayLikeDynTrace);

void
BM_MultiIssueDynTrace(benchmark::State &state)
{
    const DynTrace &trace = bigTrace();
    const unsigned width = unsigned(state.range(0));
    const bool ooo = state.range(1) != 0;
    for (auto _ : state) {
        MultiIssueSim sim({ width, ooo, BusKind::kPerUnit, false },
                          configM11BR5());
        benchmark::DoNotOptimize(sim.run(trace).cycles);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(trace.size()));
}
BENCHMARK(BM_MultiIssueDynTrace)->Args({ 8, 1 });

void
BM_RuuDynTrace(benchmark::State &state)
{
    const DynTrace &trace = bigTrace();
    const unsigned width = unsigned(state.range(0));
    const unsigned size = unsigned(state.range(1));
    for (auto _ : state) {
        RuuSim sim({ width, size, BusKind::kPerUnit },
                   configM11BR5());
        benchmark::DoNotOptimize(sim.run(trace).cycles);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(trace.size()));
}
BENCHMARK(BM_RuuDynTrace)->Args({ 4, 100 });

void
BM_DataflowLimitsDynTrace(benchmark::State &state)
{
    const DynTrace &trace = bigTrace();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            computeLimits(trace, configM11BR5()).actualRate);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(trace.size()));
}
BENCHMARK(BM_DataflowLimitsDynTrace);

// ---- steady-state fast path --------------------------------------
//
// The same (simulator, loop) measured with the steady-state
// extrapolation on and off; the on/off items_per_second ratio is the
// fast path's speedup.  Results are bit-identical either way (see
// sim/steady_state.hh), so these runs guard speed only.  Loops 6, 7
// and 13 are the three longest traces.

void
BM_ScoreboardSteady(benchmark::State &state)
{
    const int loop = int(state.range(0));
    const DecodedTrace &trace =
        TraceLibrary::instance().decoded(loop, configM11BR5());
    setSteadyStateEnabled(state.range(1) != 0);
    for (auto _ : state) {
        ScoreboardSim sim(ScoreboardConfig::crayLike(),
                          configM11BR5());
        benchmark::DoNotOptimize(sim.run(trace).cycles);
    }
    setSteadyStateEnabled(true);
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(trace.size()));
}
BENCHMARK(BM_ScoreboardSteady)
    ->Args({ 6, 0 })
    ->Args({ 6, 1 })
    ->Args({ 7, 0 })
    ->Args({ 7, 1 })
    ->Args({ 13, 0 })
    ->Args({ 13, 1 });

void
BM_MultiIssueSteady(benchmark::State &state)
{
    const int loop = int(state.range(0));
    const DecodedTrace &trace =
        TraceLibrary::instance().decoded(loop, configM11BR5());
    setSteadyStateEnabled(state.range(1) != 0);
    for (auto _ : state) {
        MultiIssueSim sim({ 8, true, BusKind::kPerUnit, false },
                          configM11BR5());
        benchmark::DoNotOptimize(sim.run(trace).cycles);
    }
    setSteadyStateEnabled(true);
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(trace.size()));
}
BENCHMARK(BM_MultiIssueSteady)
    ->Args({ 6, 0 })
    ->Args({ 6, 1 })
    ->Args({ 7, 0 })
    ->Args({ 7, 1 })
    ->Args({ 13, 0 })
    ->Args({ 13, 1 });

void
BM_RuuSteady(benchmark::State &state)
{
    const int loop = int(state.range(0));
    const DecodedTrace &trace =
        TraceLibrary::instance().decoded(loop, configM11BR5());
    setSteadyStateEnabled(state.range(1) != 0);
    for (auto _ : state) {
        RuuSim sim({ 4, 100, BusKind::kPerUnit }, configM11BR5());
        benchmark::DoNotOptimize(sim.run(trace).cycles);
    }
    setSteadyStateEnabled(true);
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(trace.size()));
}
BENCHMARK(BM_RuuSteady)
    ->Args({ 6, 0 })
    ->Args({ 6, 1 })
    ->Args({ 7, 0 })
    ->Args({ 7, 1 })
    ->Args({ 13, 0 })
    ->Args({ 13, 1 });

// ---- batched sweep --------------------------------------------------
//
// The full Table 3 in-order grid — 4 standard configs x scalar-class
// loops x 16 (stations, bus) variants — through runBatch(), one batch
// per (config, loop) cell, with the steady-state fast path off (0)
// and on (1).  tools/check_bench_regression.py --run gates the
// steady on/off items_per_second ratio within one run.

void
BM_BatchedSweep(benchmark::State &state)
{
    setSteadyStateEnabled(state.range(0) != 0);
    const auto &configs = standardConfigs();
    const std::vector<int> &loops = loopsOf(LoopClass::kScalar);
    std::int64_t ops = 0;
    for (auto _ : state) {
        ops = 0;
        for (const MachineConfig &cfg : configs) {
            for (const int loop : loops) {
                const DecodedTrace &trace =
                    TraceLibrary::instance().decoded(loop, cfg);
                std::vector<std::unique_ptr<Simulator>> sims;
                std::vector<BatchLane> lanes;
                for (unsigned stations = 1; stations <= 8;
                     ++stations) {
                    for (const BusKind bus :
                         { BusKind::kPerUnit, BusKind::kSingle }) {
                        sims.push_back(
                            std::make_unique<MultiIssueSim>(
                                MultiIssueConfig{ stations, false,
                                                  bus, false },
                                cfg));
                        lanes.push_back({ sims.back().get(), &trace });
                    }
                }
                benchmark::DoNotOptimize(
                    runBatch(lanes).results.front().cycles);
                ops += std::int64_t(trace.size()) *
                       std::int64_t(lanes.size());
            }
        }
    }
    setSteadyStateEnabled(true);
    state.SetItemsProcessed(std::int64_t(state.iterations()) * ops);
}
BENCHMARK(BM_BatchedSweep)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---- decode and generation costs ---------------------------------

void
BM_DecodeTrace(benchmark::State &state)
{
    const DynTrace &trace = bigTrace();
    const MachineConfig cfg = configM11BR5();
    for (auto _ : state) {
        const DecodedTrace decoded(trace, cfg);
        benchmark::DoNotOptimize(decoded.size());
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(trace.size()));
}
BENCHMARK(BM_DecodeTrace);

void
BM_DecodeView(benchmark::State &state)
{
    // A per-configuration view over an existing body: what
    // TraceLibrary::decoded() pays for each further configuration of
    // a loop.
    const std::shared_ptr<const TraceBody> &body =
        TraceLibrary::instance().body(6);
    const MachineConfig cfg = configM11BR5();
    for (auto _ : state) {
        const DecodedTrace view(body, cfg);
        benchmark::DoNotOptimize(view.latency(0));
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(body->size()));
}
BENCHMARK(BM_DecodeView);

void
BM_TraceGeneration(benchmark::State &state)
{
    // Assemble + interpret + validate LL1 from scratch.
    for (auto _ : state) {
        const Kernel kernel = buildKernel(1);
        benchmark::DoNotOptimize(runKernel(kernel).trace.size());
    }
}
BENCHMARK(BM_TraceGeneration);

} // namespace

BENCHMARK_MAIN();
