/**
 * @file
 * Bottleneck hunting walkthrough: given a kernel, use mfusim's
 * analysis tools to explain *why* it runs at the rate it does and
 * what would fix it — the workflow an architect would follow.
 *
 *   $ ./examples/bottleneck_hunt [loop-id]     # default: LL5
 */

#include <cstdio>
#include <cstdlib>

#include "mfusim/mfusim.hh"

using namespace mfusim;

int
main(int argc, char **argv)
{
    const int loop_id = argc > 1 ? std::atoi(argv[1]) : 5;
    const MachineConfig cfg = configM11BR5();
    const DynTrace &trace = TraceLibrary::instance().trace(loop_id);

    std::printf("=== Step 1: what is this code made of? ===\n");
    std::fputs(analyzeTrace(trace, cfg).c_str(), stdout);

    std::printf("\n=== Step 2: what could any machine achieve? ===\n");
    const LimitResult pure = computeLimits(trace, cfg, false);
    const LimitResult serial = computeLimits(trace, cfg, true);
    std::printf("  dataflow limit      %.3f instr/cycle\n",
                pure.actualRate);
    std::printf("  without renaming    %.3f (serial WAW limit)\n",
                serial.actualRate);

    std::printf("\n=== Step 3: where do the cycles go today? ===\n");
    ScoreboardSim cray(ScoreboardConfig::crayLike(), cfg);
    const SimResult base = cray.run(trace);
    std::printf("  CRAY-like issue rate %.3f (%llu cycles)\n",
                base.issueRate(),
                (unsigned long long)base.cycles);
    const auto pct = [&base](StallCause cause) {
        return 100.0 * double(base.stalls[unsigned(cause)]) /
            double(base.cycles);
    };
    std::printf("  stalls: RAW %.0f%%  WAW %.0f%%  structural "
                "%.0f%%  bus %.0f%%  branch %.0f%%\n",
                pct(StallCause::kRaw), pct(StallCause::kWaw),
                pct(StallCause::kFuBusy), pct(StallCause::kBusBusy),
                pct(StallCause::kBranch));

    std::printf("\n=== Step 4: try the fixes ===\n");
    struct Fix
    {
        const char *what;
        double rate;
    };
    RuuSim ruu({ 4, 64, BusKind::kPerUnit }, cfg);
    MachineConfig perfect = cfg;
    perfect.predictor = PredictorSpec::parse("perfect");
    RuuSim ruu_spec({ 4, 64, BusKind::kPerUnit }, perfect);
    MachineConfig fast_mem = cfg;
    fast_mem.memLatency = 5;
    ScoreboardSim cray_fast(ScoreboardConfig::crayLike(), fast_mem);
    const Fix fixes[] = {
        { "faster memory (M5)",
          cray_fast.run(trace).issueRate() },
        { "dependency resolution (RUU 4x64)",
          ruu.run(trace).issueRate() },
        { "RUU + perfect branch prediction",
          ruu_spec.run(trace).issueRate() },
    };
    for (const Fix &fix : fixes) {
        std::printf("  %-34s %.3f (%.1fx)\n", fix.what, fix.rate,
                    fix.rate / base.issueRate());
    }
    std::printf("  %-34s %.3f\n", "ceiling (dataflow limit)",
                pure.actualRate);

    std::printf(
        "\nFor a recurrence loop (LL5/LL11) every fix saturates at "
        "the dataflow\nlimit -- the serial fp chain is the program, "
        "not the machine.  For a\nparallel loop (try './bottleneck_"
        "hunt 7') the RUU and speculation rows\nkeep climbing "
        "instead.\n");
    return 0;
}
