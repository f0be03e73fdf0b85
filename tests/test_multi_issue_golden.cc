/**
 * @file
 * Pinned multiple-issue timings (golden/multi_issue_cells.txt).
 *
 * Every SimResult field of the in-order, out-of-order and RUU
 * machines of multi_issue_cells.hh, unarmed and under four
 * predictors, with the steady-state fast path on and off.  The
 * fixture was recorded before either family was rebuilt, so a
 * rewrite of their kernels has to reproduce it cell for cell.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "mfusim/harness/trace_library.hh"
#include "mfusim/sim/steady_state.hh"
#include "mfusim/spec/predictor.hh"
#include "multi_issue_cells.hh"
#include "test_util.hh"

namespace mfusim
{
namespace
{

constexpr std::size_t kPinnedCells = 24 * (14 * 4 + 4 * 14 * 2);

/** @p line with its steadyOpsSkipped field replaced by "0". */
std::string
withoutSkips(const std::string &line)
{
    std::size_t begin = 0;
    for (std::size_t f = 0; f < test::kSteadySkippedField; ++f)
        begin = line.find(' ', begin) + 1;
    const std::size_t end = line.find(' ', begin);
    return line.substr(0, begin) + '0' + line.substr(end);
}

class MultiIssueGolden
    : public ::testing::TestWithParam<std::tuple<bool, std::size_t>>
{
  protected:
    void SetUp() override
    {
        prev_ = steadyStateEnabled();
        setSteadyStateEnabled(std::get<0>(GetParam()));
    }
    void TearDown() override { setSteadyStateEnabled(prev_); }

  private:
    bool prev_ = true;
};

TEST(MultiIssueGoldenFixture, HoldsEveryCell)
{
    EXPECT_EQ(test::goldenLines("multi_issue_cells.txt").size(),
              kPinnedCells)
        << "missing or truncated golden/multi_issue_cells.txt";
}

TEST_P(MultiIssueGolden, RunMatchesFixture)
{
    const bool steady = std::get<0>(GetParam());
    const std::string &pred =
        test::multiIssuePredictors()[std::get<1>(GetParam())];
    const std::string predField = pred.empty() ? "-" : pred;

    std::vector<std::string> pinned;
    for (const std::string &line :
         test::goldenLines("multi_issue_cells.txt")) {
        const std::size_t a = line.find(' ') + 1;
        if (line.compare(a, line.find(' ', a) - a, predField) == 0)
            pinned.push_back(steady ? line : withoutSkips(line));
    }

    std::vector<std::string> got;
    for (const auto &m : test::multiIssueMachines()) {
        for (const MachineConfig &base : test::multiIssueConfigs(pred)) {
            MachineConfig cfg = base;
            if (!pred.empty())
                cfg.predictor = PredictorSpec::parse(pred);
            for (int loop = 1; loop <= 14; ++loop) {
                const DecodedTrace &trace =
                    TraceLibrary::instance().decoded(loop, cfg);
                got.push_back(test::multiIssueCellLine(
                    m.label, pred, base, loop, m.make(cfg)->run(trace)));
            }
        }
    }
    ASSERT_EQ(got.size(), pinned.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], pinned[i]) << "predictor " << predField;
}

std::string
paramName(const ::testing::TestParamInfo<MultiIssueGolden::ParamType> &info)
{
    static const char *const preds[] = { "none", "btfn", "perfect",
                                         "twobit", "fixed90" };
    return std::string(std::get<0>(info.param) ? "steady_" : "plain_") +
        preds[std::get<1>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    SteadyOnOff, MultiIssueGolden,
    ::testing::Combine(
        ::testing::Bool(),
        ::testing::Range(std::size_t(0),
                         test::multiIssuePredictors().size())),
    paramName);

} // namespace
} // namespace mfusim
