/**
 * @file
 * Pinned multiple-issue timings (golden/multi_issue_cells.txt).
 *
 * Every SimResult field of the in-order, out-of-order and RUU
 * machines of multi_issue_cells.hh, unarmed and under four
 * predictors, with the steady-state fast path on and off, run alone
 * and, for the seq and ooo machines, batched.  The fixture was
 * recorded before either family was rebuilt, so a rewrite of their
 * kernels has to reproduce it cell for cell.
 *
 * MultiIssueObsGolden pins what an attached sink sees of the seq and
 * ooo machines (golden/multi_issue_obs.txt): the stall attribution
 * and digests of the audit event and stall-sample streams.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "mfusim/harness/trace_library.hh"
#include "mfusim/sim/batched.hh"
#include "mfusim/sim/steady_state.hh"
#include "mfusim/spec/predictor.hh"
#include "multi_issue_cells.hh"
#include "test_util.hh"

namespace mfusim
{
namespace
{

constexpr std::size_t kPinnedCells = 36 * (14 * 4 + 4 * 14 * 2);
constexpr std::size_t kPinnedObsRuns = 8 * 14 * 4;

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

    /** The predictor this instance arms ("" = none). */
    const std::string &
    pred() const
    {
        return test::multiIssuePredictors()[std::get<1>(GetParam())];
    }

    /** The configuration @p base with pred() armed. */
    MachineConfig
    armed(const MachineConfig &base) const
    {
        MachineConfig cfg = base;
        if (!pred().empty())
            cfg.predictor = PredictorSpec::parse(pred());
        return cfg;
    }

    /**
     * The fixture lines of pred() whose machine label starts with
     * one of @p families, as this instance's steady setting
     * reports them.
     */
    std::vector<std::string>
    pinned(std::initializer_list<const char *> families) const
    {
        const std::string predField = pred().empty() ? "-" : pred();
        std::vector<std::string> lines;
        for (const std::string &line :
             test::goldenLines("multi_issue_cells.txt")) {
            const std::size_t a = line.find(' ') + 1;
            if (line.compare(a, line.find(' ', a) - a, predField) != 0)
                continue;
            for (const char *family : families) {
                if (line.rfind(family, 0) == 0) {
                    lines.push_back(std::get<0>(GetParam())
                                        ? line
                                        : withoutSkips(line));
                    break;
                }
            }
        }
        return lines;
    }

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
    const std::vector<std::string> want =
        pinned({ "seq:", "ooo:", "ruu:" });
    std::vector<std::string> got;
    for (const auto &m : test::multiIssueMachines()) {
        for (const MachineConfig &base :
             test::multiIssueConfigs(pred())) {
            const MachineConfig cfg = armed(base);
            for (int loop = 1; loop <= 14; ++loop) {
                const DecodedTrace &trace =
                    TraceLibrary::instance().decoded(loop, cfg);
                got.push_back(test::multiIssueCellLine(
                    m.label, pred(), base, loop,
                    m.make(cfg)->run(trace)));
            }
        }
    }
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "fixture line " << i;
}

TEST_P(MultiIssueGolden, RunBatchMatchesFixture)
{
    // One batch per (loop, configuration) holds every seq and ooo
    // machine of the grid, as a table sweep would batch them.
    std::vector<test::MultiIssueMachine> machines;
    for (auto &m : test::multiIssueMachines()) {
        if (m.label.rfind("ruu:", 0) != 0)
            machines.push_back(std::move(m));
    }
    const std::vector<MachineConfig> configs =
        test::multiIssueConfigs(pred());
    const std::vector<std::string> want = pinned({ "seq:", "ooo:" });
    std::vector<std::string> got(machines.size() * configs.size() * 14);
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const MachineConfig cfg = armed(configs[c]);
        for (int loop = 1; loop <= 14; ++loop) {
            const DecodedTrace &trace =
                TraceLibrary::instance().decoded(loop, cfg);
            std::vector<std::unique_ptr<Simulator>> sims;
            std::vector<BatchLane> lanes;
            for (const auto &m : machines) {
                sims.push_back(m.make(cfg));
                lanes.push_back({ sims.back().get(), &trace });
            }
            const BatchOutcome out = runBatch(lanes);
            ASSERT_EQ(out.results.size(), lanes.size());
            for (std::size_t m = 0; m < machines.size(); ++m) {
                std::string &line = got[(m * configs.size() + c) * 14 +
                                        std::size_t(loop - 1)];
                line = test::multiIssueCellLine(machines[m].label,
                                                pred(), configs[c],
                                                loop, out.results[m]);
                // Each lane is its own run().
                EXPECT_EQ(line, test::multiIssueCellLine(
                                    machines[m].label, pred(),
                                    configs[c], loop,
                                    machines[m].make(cfg)->run(trace)));
            }
        }
    }
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << "fixture line " << i;
}

TEST(MultiIssueObsGolden, InstrumentedRunsMatchFixture)
{
    const std::vector<std::string> pinned =
        test::goldenLines("multi_issue_obs.txt");
    ASSERT_EQ(pinned.size(), kPinnedObsRuns)
        << "missing or truncated golden/multi_issue_obs.txt";

    std::vector<std::string> got;
    for (const char *pred : { "", "btfn:w0", "2bit", "fixed:90" }) {
        MachineConfig cfg = configM11BR5();
        if (*pred)
            cfg.predictor = PredictorSpec::parse(pred);
        for (const bool ooo : { false, true }) {
            for (const unsigned width : { 1u, 2u, 4u, 8u }) {
                MultiIssueSim sim(
                    MultiIssueConfig{ width, ooo, BusKind::kPerUnit },
                    cfg);
                const std::string label =
                    (ooo ? "ooo:" : "seq:") + std::to_string(width);
                for (int loop = 1; loop <= 14; ++loop) {
                    got.push_back(test::multiIssueObsLine(
                        label, pred, loop, sim,
                        TraceLibrary::instance().decoded(loop, cfg)));
                }
            }
        }
    }
    ASSERT_EQ(got.size(), pinned.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], pinned[i]) << "fixture line " << i;
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
