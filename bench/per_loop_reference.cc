/**
 * @file
 * Per-loop reference dump: the numbers behind every harmonic mean.
 *
 * The paper reports only class-level harmonic means; this bench
 * prints the underlying per-loop issue rates for the key machines,
 * so any class-level shift can be traced to the loops that caused
 * it.  Also serves as the repository's regression reference (the
 * headline values are pinned in tests/test_regression_pins.cc).
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "mfusim/dataflow/limits.hh"
#include "mfusim/dataflow/trace_analysis.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/codegen/livermore.hh"
#include "mfusim/sim/multi_issue_sim.hh"
#include "mfusim/sim/ruu_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/simple_sim.hh"

using namespace mfusim;

int
main()
{
    for (const MachineConfig &cfg :
         { configM11BR5(), configM5BR2() }) {
        std::printf("Per-loop issue rates, %s\n\n",
                    cfg.name().c_str());
        AsciiTable table;
        table.setHeader({ "Loop", "Class", "Simple", "CRAY",
                          "Seq w=4", "OOO w=4", "RUU 1x50",
                          "RUU 4x100", "DF", "Serial", "Buf" });
        for (const KernelSpec &spec : kernelSpecs()) {
            const DecodedTrace &trace =
                TraceLibrary::instance().decoded(spec.id, cfg);
            SimpleSim simple(cfg);
            ScoreboardSim cray(ScoreboardConfig::crayLike(), cfg);
            MultiIssueSim seq({ 4, false, BusKind::kPerUnit, false },
                              cfg);
            MultiIssueSim ooo({ 4, true, BusKind::kPerUnit, false },
                              cfg);
            RuuSim ruu1({ 1, 50, BusKind::kPerUnit }, cfg);
            RuuSim ruu4({ 4, 100, BusKind::kPerUnit }, cfg);
            const LimitResult pure = computeLimits(trace);
            const LimitResult serial = computeLimits(trace, true);
            const BufferDemand demand = bufferDemand(trace);
            table.addRow({
                "LL" + std::to_string(spec.id),
                spec.vectorizable ? "vec" : "scal",
                AsciiTable::num(simple.run(trace).issueRate()),
                AsciiTable::num(cray.run(trace).issueRate()),
                AsciiTable::num(seq.run(trace).issueRate()),
                AsciiTable::num(ooo.run(trace).issueRate()),
                AsciiTable::num(ruu1.run(trace).issueRate()),
                AsciiTable::num(ruu4.run(trace).issueRate()),
                AsciiTable::num(pure.actualRate),
                AsciiTable::num(serial.actualRate),
                std::to_string(demand.peakLiveValues),
            });
        }
        table.print(std::cout);
        std::printf("\n");
    }
    std::printf(
        "DF = actual dataflow limit; Serial = no-WAW-buffering "
        "limit;\nBuf = peak live values the dataflow schedule "
        "implies (compare with\nthe RUU sizes of Tables 7/8).\n");
    return 0;
}
