/**
 * @file
 * Reproduces the section 6 "Discussion and Conclusions" narrative:
 * each machine organization's performance as a percentage of the
 * theoretical maximum (the actual dataflow limit), alongside the
 * percentage ranges the paper quotes.
 */

#include <cstdio>
#include <iostream>
#include <memory>

#include "bench_util.hh"
#include "mfusim/core/stats.hh"
#include "mfusim/dataflow/limits.hh"
#include "mfusim/harness/experiment.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/sim/multi_issue_sim.hh"
#include "mfusim/sim/ruu_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/simple_sim.hh"

using namespace mfusim;

namespace
{

double
meanLimit(LoopClass cls, const MachineConfig &cfg)
{
    std::vector<double> rates;
    for (int id : loopsOf(cls)) {
        rates.push_back(
            computeLimits(TraceLibrary::instance().decoded(id, cfg))
                .actualRate);
    }
    return harmonicMean(rates);
}

struct Line
{
    const char *organization;
    SimFactory factory;
    const char *paperScalar;    //!< the paper's quoted % range
    const char *paperVector;
};

} // namespace

int
main()
{
    std::printf(
        "Section 6 summary: percent of the theoretical maximum\n"
        "(min-max over the four M/BR configurations; paper's quoted\n"
        " range in brackets)\n\n");

    const std::vector<Line> lines = {
        { "Simple serial machine",
          [](const MachineConfig &c) -> std::unique_ptr<Simulator> {
              return std::make_unique<SimpleSim>(c);
          },
          "18-26%", "7-9%" },
        { "+ overlap distinct FUs",
          [](const MachineConfig &c) -> std::unique_ptr<Simulator> {
              return std::make_unique<ScoreboardSim>(
                  ScoreboardConfig::serialMemory(), c);
          },
          "27-39%", "10-14%" },
        { "+ interleaved memory",
          [](const MachineConfig &c) -> std::unique_ptr<Simulator> {
              return std::make_unique<ScoreboardSim>(
                  ScoreboardConfig::nonSegmented(), c);
          },
          "33-41%", "15-17%" },
        { "+ pipelined FUs (CRAY-like)",
          [](const MachineConfig &c) -> std::unique_ptr<Simulator> {
              return std::make_unique<ScoreboardSim>(
                  ScoreboardConfig::crayLike(), c);
          },
          "35-45%", "23-27%" },
        { "1 issue unit + dep. resolution",
          [](const MachineConfig &c) -> std::unique_ptr<Simulator> {
              return std::make_unique<RuuSim>(
                  RuuConfig{ 1, 50, BusKind::kPerUnit }, c);
          },
          "56-62%", "~29%" },
        { "2 issue units (RUU 50)",
          [](const MachineConfig &c) -> std::unique_ptr<Simulator> {
              return std::make_unique<RuuSim>(
                  RuuConfig{ 2, 50, BusKind::kPerUnit }, c);
          },
          "60-68%", "44-46%" },
        { "4 issue units (RUU 100)",
          [](const MachineConfig &c) -> std::unique_ptr<Simulator> {
              return std::make_unique<RuuSim>(
                  RuuConfig{ 4, 100, BusKind::kPerUnit }, c);
          },
          "64-69%", "57-64%" },
    };

    AsciiTable table;
    table.setHeader({ "Organization", "Scalar %max [paper]",
                      "Vector %max [paper]" });

    for (const Line &line : lines) {
        std::string cells[2];
        int idx = 0;
        for (const LoopClass cls :
             { LoopClass::kScalar, LoopClass::kVectorizable }) {
            double lo = 1e9, hi = 0.0;
            for (const MachineConfig &cfg : standardConfigs()) {
                const double frac =
                    meanIssueRate(line.factory, cls, cfg) /
                    meanLimit(cls, cfg);
                lo = std::min(lo, frac);
                hi = std::max(hi, frac);
            }
            cells[idx++] = AsciiTable::num(lo * 100, 0) + "-" +
                AsciiTable::num(hi * 100, 0) + "% [" +
                (cls == LoopClass::kScalar ? line.paperScalar
                                           : line.paperVector) +
                "]";
        }
        table.addRow({ line.organization, cells[0], cells[1] });
    }
    table.print(std::cout);

    std::printf(
        "\nNote: the paper's CRAY-like row is quoted from its "
        "percentages for\npipelining over the NonSegmented machine; "
        "exact ranges differ because\nthe theoretical maxima differ "
        "per configuration.\n");
    return 0;
}
