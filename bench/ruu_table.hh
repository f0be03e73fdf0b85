/**
 * @file
 * Shared driver for Tables 7-8: multiple issue units with RUU
 * dependency resolution, swept over RUU sizes {10..100}, 1..4 issue
 * units, N-Bus (restricted) and 1-Bus organizations.
 */

#ifndef MFUSIM_BENCH_RUU_TABLE_HH
#define MFUSIM_BENCH_RUU_TABLE_HH

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
#include "mfusim/sim/ruu_sim.hh"

namespace mfusim
{
namespace bench
{

inline int
runRuuTable(const char *title, LoopClass cls)
{
    std::printf("%s\n(measured [paper])\n\n", title);

    // All 48 (size, units, bus) variants of one (config, loop) cell
    // time the same decoded trace: each grid cell hands them to the
    // batched sweep entry together, which runs each lane alone and
    // populates the result cache in one call.  Cells still write
    // only their own slots and the render stays serial, so the
    // printed table is bit-identical to a serial run.
    constexpr int kConfigs = 4;
    constexpr int kSizes = 6;
    constexpr int kUnits = 4;
    constexpr int kBusses = 2;
    const auto &configs = standardConfigs();
    const std::vector<int> &loops = loopsOf(cls);
    std::vector<SimFactory> variants;
    for (int size_idx = 0; size_idx < kSizes; ++size_idx) {
        const unsigned size =
            unsigned(paper::ruuSizes()[std::size_t(size_idx)]);
        for (unsigned units = 1; units <= kUnits; ++units) {
            for (const BusKind bus :
                 { BusKind::kPerUnit, BusKind::kSingle }) {
                variants.push_back(
                    [units, size, bus](const MachineConfig &c)
                        -> std::unique_ptr<Simulator> {
                        return std::make_unique<RuuSim>(
                            RuuConfig{ units, size, bus }, c);
                    });
            }
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
    std::vector<double> measured(kConfigs * kSizes * kUnits * kBusses);
    for (std::size_t i = 0; i < measured.size(); ++i) {
        const std::size_t cfg = i / (kSizes * kUnits * kBusses);
        const std::size_t v = i % (kSizes * kUnits * kBusses);
        measured[i] = harmonicMean(std::span<const double>(
            &cube[(cfg * variants.size() + v) * loops.size()],
            loops.size()));
    }

    RatioTracker ratios;
    AsciiTable table;
    table.setHeader({ "Machine", "RUU", "1 N-Bus", "1 1-Bus",
                      "2 N-Bus", "2 1-Bus", "3 N-Bus", "3 1-Bus",
                      "4 N-Bus", "4 1-Bus" });

    std::size_t i = 0;
    for (int cfg = 0; cfg < kConfigs; ++cfg) {
        for (int size_idx = 0; size_idx < kSizes; ++size_idx) {
            const unsigned size =
                unsigned(paper::ruuSizes()[std::size_t(size_idx)]);
            std::vector<std::string> row = {
                size_idx == 0
                    ? configs[std::size_t(cfg)].name()
                    : "",
                std::to_string(size),
            };
            for (int units = 1; units <= kUnits; ++units) {
                for (int bus = 0; bus < kBusses; ++bus, ++i) {
                    const double published = paper::table7_8(
                        cls, cfg, size_idx, units, bus == 1);
                    row.push_back(cell(measured[i], published));
                    ratios.add(measured[i], published);
                }
            }
            table.addRow(std::move(row));
        }
        if (cfg < 3)
            table.addRule();
    }
    table.print(std::cout);
    ratios.printSummary(title);
    return 0;
}

} // namespace bench
} // namespace mfusim

#endif // MFUSIM_BENCH_RUU_TABLE_HH
