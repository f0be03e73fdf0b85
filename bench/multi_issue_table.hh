/**
 * @file
 * Shared driver for Tables 3-6: multiple issue units over an
 * instruction buffer, sequential or out-of-order issue, N-Bus and
 * 1-Bus organizations, 1..8 issue stations.
 */

#ifndef MFUSIM_BENCH_MULTI_ISSUE_TABLE_HH
#define MFUSIM_BENCH_MULTI_ISSUE_TABLE_HH

#include <cstdio>
#include <iostream>
#include <memory>
#include <span>
#include <vector>

#include "bench_util.hh"
#include "mfusim/core/stats.hh"
#include "mfusim/harness/experiment.hh"
#include "mfusim/harness/paper_data.hh"
#include "mfusim/harness/sweep.hh"
#include "mfusim/sim/multi_issue_sim.hh"

namespace mfusim
{
namespace bench
{

inline int
runMultiIssueTable(const char *title, LoopClass cls, bool outOfOrder)
{
    std::printf("%s\n(measured [paper])\n\n", title);

    // All 16 (stations, bus) variants of one (config, loop) cell
    // time the same decoded trace: each grid cell hands them to the
    // batched sweep entry together, which runs each lane alone and
    // populates the result cache in one call.  Cells still write
    // only their own slots and the render stays serial, so the
    // printed table is bit-identical to a serial run.
    constexpr int kStations = 8;
    constexpr int kConfigs = 4;
    constexpr int kBusses = 2;
    const auto &configs = standardConfigs();
    const std::vector<int> &loops = loopsOf(cls);
    std::vector<SimFactory> variants;
    for (unsigned stations = 1; stations <= kStations; ++stations) {
        for (const BusKind bus :
             { BusKind::kPerUnit, BusKind::kSingle }) {
            variants.push_back(
                [stations, bus, outOfOrder](const MachineConfig &c)
                    -> std::unique_ptr<Simulator> {
                    return std::make_unique<MultiIssueSim>(
                        MultiIssueConfig{ stations, outOfOrder, bus,
                                          false },
                        c);
                });
        }
    }
    // rate of (config, variant, loop)
    std::vector<double> cube(kConfigs * variants.size() *
                             loops.size());
    runGrid(std::size_t(kConfigs) * loops.size(), [&](std::size_t i) {
        const std::size_t cfg = i / loops.size();
        const std::size_t li = i % loops.size();
        const auto cell = batchedPerLoopRates(
            variants, { loops[li] }, configs[cfg]);
        for (std::size_t v = 0; v < variants.size(); ++v)
            cube[(cfg * variants.size() + v) * loops.size() + li] =
                cell[v].front();
    });
    std::vector<double> measured(kStations * kConfigs * kBusses);
    for (std::size_t i = 0; i < measured.size(); ++i) {
        const std::size_t stations = i / (kConfigs * kBusses);
        const std::size_t cfg = i / kBusses % kConfigs;
        const std::size_t bus = i % kBusses;
        const std::size_t v = stations * kBusses + bus;
        measured[i] = harmonicMean(std::span<const double>(
            &cube[(cfg * variants.size() + v) * loops.size()],
            loops.size()));
    }

    RatioTracker ratios;
    AsciiTable table;
    table.setHeader({ "Stations", "M11BR5 N-Bus", "M11BR5 1-Bus",
                      "M11BR2 N-Bus", "M11BR2 1-Bus", "M5BR5 N-Bus",
                      "M5BR5 1-Bus", "M5BR2 N-Bus", "M5BR2 1-Bus" });

    std::size_t i = 0;
    for (int stations = 1; stations <= kStations; ++stations) {
        std::vector<std::string> row = { std::to_string(stations) };
        for (int cfg = 0; cfg < kConfigs; ++cfg) {
            for (int bus = 0; bus < kBusses; ++bus, ++i) {
                const bool one_bus = bus == 1;
                const double published =
                    outOfOrder
                        ? paper::table5_6(cls, cfg, stations, one_bus)
                        : paper::table3_4(cls, cfg, stations,
                                          one_bus);
                row.push_back(cell(measured[i], published));
                ratios.add(measured[i], published);
            }
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    ratios.printSummary(title);
    return 0;
}

} // namespace bench
} // namespace mfusim

#endif // MFUSIM_BENCH_MULTI_ISSUE_TABLE_HH
