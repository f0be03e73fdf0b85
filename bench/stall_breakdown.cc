/**
 * @file
 * Where the issue cycles go: stall attribution for the single-issue
 * machines of Table 1.
 *
 * The paper's Table 1 narrative — interleaving memory matters,
 * pipelining the units barely does, branches and data dependences
 * dominate — is made quantitative here by charging every lost issue
 * cycle to its binding hazard.
 */

#include <cstdio>
#include <iostream>

#include "bench_util.hh"
#include "mfusim/harness/experiment.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/obs/run_metrics.hh"
#include "mfusim/sim/scoreboard_sim.hh"

using namespace mfusim;

int
main()
{
    std::printf(
        "Issue-stall breakdown, single-issue machines (percent of\n"
        "total cycles, summed over all 14 loops)\n\n");

    AsciiTable table;
    table.setHeader({ "Machine", "Config", "busy%", "RAW%", "WAW%",
                      "struct%", "bus%", "branch%" });

    const std::vector<std::pair<const char *, ScoreboardConfig>>
        machines = {
            { "SerialMemory", ScoreboardConfig::serialMemory() },
            { "NonSegmented", ScoreboardConfig::nonSegmented() },
            { "CRAY-like", ScoreboardConfig::crayLike() },
        };

    for (const auto &[name, org] : machines) {
        for (const MachineConfig &cfg :
             { configM11BR5(), configM5BR2() }) {
            // Aggregate through the observability layer: each run's
            // SimResult::stalls lands in a MetricsRegistry under the
            // standard cycles.stall.* names, and the table is
            // rendered from the registry.
            MetricsRegistry reg;
            for (int id = 1; id <= 14; ++id) {
                ScoreboardSim sim(org, cfg);
                const SimResult r =
                    sim.run(TraceLibrary::instance().decoded(id, cfg));
                addStallCounters(reg, r.stalls);
                reg.counter("ops.total").add(r.instructions);
                reg.counter("cycles.total").add(r.cycles);
            }
            const std::uint64_t cycles =
                reg.counterValue("cycles.total");
            const auto pct = [&reg, cycles](const char *key) {
                return AsciiTable::num(
                    100.0 * double(reg.counterValue(key)) /
                        double(cycles),
                    1);
            };
            table.addRow({
                name,
                cfg.name(),
                pct("ops.total"),
                pct("cycles.stall.raw"),
                pct("cycles.stall.waw"),
                pct("cycles.stall.fu_busy"),
                pct("cycles.stall.bus_busy"),
                pct("cycles.stall.branch"),
            });
        }
        table.addRule();
    }
    table.print(std::cout);

    std::printf(
        "\nReading the table:\n"
        " - busy%% = cycles an instruction actually issued (the "
        "issue rate);\n"
        " - struct%% collapses from SerialMemory to NonSegmented "
        "(memory\n   interleaving) and is nearly gone on the "
        "CRAY-like machine --\n   exactly why the paper found "
        "pipelining the units unprofitable\n   once dependences "
        "still block issue;\n"
        " - what remains is RAW + branch: the motivation for "
        "dependency\n   resolution (Tables 7/8) and, beyond the "
        "paper, speculation.\n");
    return 0;
}
