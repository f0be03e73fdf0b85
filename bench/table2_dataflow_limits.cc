/**
 * @file
 * Reproduces Table 2: "The Pseudo-Dataflow and Resource Limits for
 * Vector and Scalar Loops" -- the Pure (renamed registers) and
 * Serial (in-order completion per register) limit computations.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "mfusim/core/stats.hh"
#include "mfusim/dataflow/limits.hh"
#include "mfusim/harness/experiment.hh"
#include "mfusim/harness/paper_data.hh"
#include "mfusim/harness/trace_library.hh"

using namespace mfusim;

namespace
{

struct ClassLimits
{
    double pseudo;
    double resource;
    double actual;
};

ClassLimits
limitsFor(LoopClass cls, const MachineConfig &cfg, bool serial)
{
    std::vector<double> pseudo, resource, actual;
    for (int id : loopsOf(cls)) {
        const LimitResult r = computeLimits(
            TraceLibrary::instance().decoded(id, cfg), serial);
        pseudo.push_back(r.pseudoRate);
        resource.push_back(r.resourceRate);
        actual.push_back(r.actualRate);
    }
    return { harmonicMean(pseudo), harmonicMean(resource),
             harmonicMean(actual) };
}

} // namespace

int
main()
{
    std::printf("Table 2: pseudo-dataflow and resource limits\n");
    std::printf("(measured [paper])\n\n");

    bench::RatioTracker ratios;
    AsciiTable table;
    table.setHeader({ "Code", "Machine", "Pseudo-Dataflow",
                      "Resource", "Actual" });

    for (const bool serial : { false, true }) {
        for (const LoopClass cls :
             { LoopClass::kScalar, LoopClass::kVectorizable }) {
            const auto &configs = standardConfigs();
            for (int cfg = 0; cfg < 4; ++cfg) {
                const ClassLimits mine = limitsFor(
                    cls, configs[std::size_t(cfg)], serial);
                const paper::Table2Row pub =
                    paper::table2(serial, cls, cfg);
                table.addRow({
                    cfg == 0 ? loopClassName(cls) : "",
                    std::string(serial ? "Serial " : "Pure ") +
                        configs[std::size_t(cfg)].name(),
                    bench::cell(mine.pseudo, pub.pseudo),
                    bench::cell(mine.resource, pub.resource),
                    bench::cell(mine.actual, pub.actual),
                });
                ratios.add(mine.actual, pub.actual);
            }
            table.addRule();
        }
    }
    table.print(std::cout);
    ratios.printSummary("Table 2 (actual limits)");

    std::printf(
        "\nKey shape checks:\n"
        " - Pure pseudo-dataflow limits are identical for M11 and "
        "M5\n   (memory latency hidden under longer chains), as in "
        "the paper.\n"
        " - Serial (no WAW buffering) limits fall below ~1 "
        "instruction/cycle.\n"
        " - Vectorizable loops show a higher pure limit than scalar "
        "loops.\n");
    return 0;
}
