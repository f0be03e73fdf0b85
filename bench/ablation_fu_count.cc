/**
 * @file
 * Ablation: replicated functional units and memory ports
 * (extension).
 *
 * The paper's opening sentence — designers seek performance by
 * "increas[ing] the number of functional units (or their
 * availability through pipelining)" — yet its base machine fixes one
 * unit of each class.  This bench replicates units and ports under
 * the most aggressive issue scheme (RUU 4x100) to locate the real
 * resource wall.
 */

#include <cstdio>
#include <iostream>
#include <memory>

#include "bench_util.hh"
#include "mfusim/core/stats.hh"
#include "mfusim/dataflow/limits.hh"
#include "mfusim/harness/experiment.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/sim/ruu_sim.hh"
#include "mfusim/spec/predictor.hh"

using namespace mfusim;

namespace
{

/** RUU 4x100 rate with @p pred armed ("" = blocking branches). */
double
ruuRate(LoopClass cls, const MachineConfig &cfg, unsigned fu,
        unsigned mem, const char *pred)
{
    return meanIssueRate(
        [fu, mem, pred](const MachineConfig &c)
            -> std::unique_ptr<Simulator> {
            MachineConfig mc = c;
            if (*pred != '\0')
                mc.predictor = PredictorSpec::parse(pred);
            RuuConfig org{ 4, 100, BusKind::kPerUnit, fu, mem };
            return std::make_unique<RuuSim>(org, mc);
        },
        cls, cfg);
}

double
meanLimit(LoopClass cls, const MachineConfig &cfg, unsigned fu,
          unsigned mem)
{
    std::vector<double> rates;
    for (int id : loopsOf(cls)) {
        rates.push_back(
            computeLimits(TraceLibrary::instance().decoded(id, cfg),
                          false, fu, mem)
                .actualRate);
    }
    return harmonicMean(rates);
}

} // namespace

int
main()
{
    std::printf(
        "Ablation: replicated execution resources under RUU 4x100\n"
        "(fu = copies of every functional unit, mem = memory "
        "ports;\n blocking branches vs oracle prediction, M11BR5)\n\n");

    const MachineConfig cfg = configM11BR5();
    AsciiTable table;
    table.setHeader({ "Code", "fu x mem", "blocking", "oracle",
                      "resource limit" });

    for (const LoopClass cls :
         { LoopClass::kScalar, LoopClass::kVectorizable }) {
        for (const auto &[fu, mem] :
             std::vector<std::pair<unsigned, unsigned>>{
                 { 1, 1 }, { 2, 1 }, { 4, 1 }, { 1, 2 }, { 2, 2 },
                 { 4, 4 } }) {
            std::vector<double> limit_rates;
            for (int id : loopsOf(cls)) {
                limit_rates.push_back(
                    computeLimits(
                        TraceLibrary::instance().decoded(id, cfg),
                        false, fu, mem)
                        .resourceRate);
            }
            table.addRow({
                loopClassName(cls),
                std::to_string(fu) + " x " + std::to_string(mem),
                AsciiTable::num(ruuRate(cls, cfg, fu, mem, "")),
                AsciiTable::num(ruuRate(cls, cfg, fu, mem, "perfect")),
                AsciiTable::num(harmonicMean(limit_rates)),
            });
        }
        table.addRule();
    }
    table.print(std::cout);

    std::printf(
        "\nExpected shape: replicating every unit and port buys "
        "almost nothing\n(<0.1 issue rate) even at 4x4 and even "
        "with oracle branches: once the\nresource limit is lifted "
        "far above the dataflow limit (%0.2f at 4x4\nscalar), the "
        "programs' dependence structure binds.  This confirms "
        "the\npaper's focus on issue logic rather than raw "
        "resources.\n",
        meanLimit(LoopClass::kScalar, cfg, 4, 4));
    return 0;
}
