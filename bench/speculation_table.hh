/**
 * @file
 * Shared driver for Tables 5s/8s: one speculative machine swept over
 * the predictor-quality axis (extension beyond the paper).
 *
 * Rows walk from the paper's blocking front end through real
 * predictors (always-taken, BTFN, 2-bit counters), a synthetic
 * fixed-accuracy ladder 80..99%, and the perfect predictor; the
 * ",oracle" machine-spec alias closes the table as the upper bound
 * (it arms the perfect predictor, so the two rows agree by
 * construction).
 * Columns are the four standard machine configurations.  No paper
 * numbers exist for these tables, so cells are measured-only.
 */

#ifndef MFUSIM_BENCH_SPECULATION_TABLE_HH
#define MFUSIM_BENCH_SPECULATION_TABLE_HH

#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <span>
#include <vector>

#include "bench_util.hh"
#include "mfusim/core/stats.hh"
#include "mfusim/harness/experiment.hh"
#include "mfusim/harness/sweep.hh"
#include "mfusim/spec/predictor.hh"

namespace mfusim
{
namespace bench
{

/** Builds the swept machine for one config (predictor included). */
using SpecMachineMaker =
    std::function<std::unique_ptr<Simulator>(const MachineConfig &)>;

inline int
runSpeculationTable(const char *title, LoopClass cls,
                    const SpecMachineMaker &make)
{
    std::printf("%s\n(measured only -- no paper data; the paper's "
                "machines do not speculate)\n\n",
                title);

    struct Row
    {
        const char *label;
        const char *pred; // nullptr = no predictor armed
    };
    const std::vector<Row> rows = {
        { "blocking (paper)", nullptr },
        { "pred=taken", "taken" },
        { "pred=btfn", "btfn" },
        { "pred=fixed:80", "fixed:80" },
        { "pred=fixed:85", "fixed:85" },
        { "pred=fixed:90", "fixed:90" },
        { "pred=fixed:95", "fixed:95" },
        { "pred=fixed:99", "fixed:99" },
        { "pred=2bit", "2bit" },
        { "pred=perfect", "perfect" },
        { "oracle (no spec)", "perfect" },   // the ",oracle" alias
    };

    // One variant per row; each carries its predictor in its own copy
    // of the machine configuration.  All rows of one (config, loop)
    // cell go through the batched sweep entry together: speculative
    // lanes fall back to the scalar path inside runBatch, so the win
    // is the shared decode and one-pass cache population.
    constexpr int kConfigs = 4;
    const auto &configs = standardConfigs();
    const std::vector<int> &loops = loopsOf(cls);
    std::vector<SimFactory> variants;
    for (const Row &row : rows) {
        variants.push_back([&make, row](const MachineConfig &c)
                               -> std::unique_ptr<Simulator> {
            MachineConfig mc = c;
            if (row.pred != nullptr)
                mc.predictor = PredictorSpec::parse(row.pred);
            return make(mc);
        });
    }

    // rate of (config, row, loop)
    std::vector<double> cube(kConfigs * rows.size() * loops.size());
    runGrid(std::size_t(kConfigs) * loops.size(), [&](std::size_t i) {
        const std::size_t cfg = i / loops.size();
        const std::size_t li = i % loops.size();
        const auto cell =
            batchedPerLoopRates(variants, { loops[li] }, configs[cfg]);
        for (std::size_t v = 0; v < variants.size(); ++v)
            cube[(cfg * variants.size() + v) * loops.size() + li] =
                cell[v].front();
    });

    AsciiTable table;
    table.setHeader({ "Predictor", configs[0].name(),
                      configs[1].name(), configs[2].name(),
                      configs[3].name() });
    for (std::size_t r = 0; r < rows.size(); ++r) {
        std::vector<std::string> row = { rows[r].label };
        for (std::size_t cfg = 0; cfg < kConfigs; ++cfg) {
            const double mean = harmonicMean(std::span<const double>(
                &cube[(cfg * variants.size() + r) * loops.size()],
                loops.size()));
            row.push_back(AsciiTable::num(mean));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);

    std::printf(
        "\nExpected shape: rates climb monotonically with predictor\n"
        "accuracy (fixed:80 .. fixed:99), and pred=perfect matches\n"
        "the oracle row bit-for-bit -- a correctly predicted branch\n"
        "costs exactly what the legacy oracle policy charged.\n");
    return 0;
}

} // namespace bench
} // namespace mfusim

#endif // MFUSIM_BENCH_SPECULATION_TABLE_HH
