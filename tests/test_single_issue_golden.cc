/**
 * @file
 * Pinned single-issue timings (golden/single_issue_cells.txt).
 *
 * SimpleSim and ScoreboardSim have one lane transition each: run()
 * advances one lane over the whole trace, runBatch() advances many
 * lanes over it block by block.  Comparing the two checks the block
 * schedule, not the timing rules, so both are checked against cells
 * recorded while the scalar simulators and the batched kernel were
 * separate implementations — with the steady-state fast path on and
 * off.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mfusim/harness/trace_library.hh"
#include "mfusim/sim/batched.hh"
#include "mfusim/sim/steady_state.hh"
#include "single_issue_cells.hh"
#include "test_util.hh"

namespace mfusim
{
namespace
{

constexpr std::size_t kPinnedCells = 1400;

class SingleIssueGolden : public ::testing::TestWithParam<bool>
{
  protected:
    void SetUp() override
    {
        prev_ = steadyStateEnabled();
        setSteadyStateEnabled(GetParam());
        pinned_ = test::goldenLines("single_issue_cells.txt");
        ASSERT_EQ(pinned_.size(), kPinnedCells)
            << "missing or truncated golden/single_issue_cells.txt";
        if (!GetParam()) {
            // The fixture pins a steady-state run's skip count; with
            // the fast path off every cell skips nothing.
            for (std::string &line : pinned_) {
                const std::size_t sq = line.rfind(' ');
                const std::size_t sk = line.rfind(' ', sq - 1);
                line = line.substr(0, sk + 1) + '0' + line.substr(sq);
            }
        }
    }
    void TearDown() override { setSteadyStateEnabled(prev_); }

    void
    expectPinned(const std::vector<std::string> &got) const
    {
        ASSERT_EQ(got.size(), pinned_.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_EQ(got[i], pinned_[i]) << "fixture line " << i;
    }

    std::vector<std::string> pinned_;

  private:
    bool prev_ = true;
};

TEST_P(SingleIssueGolden, RunMatchesFixture)
{
    std::vector<std::string> got;
    for (const auto &m : test::singleIssueMachines()) {
        for (const MachineConfig &cfg : standardConfigs()) {
            for (int loop = 1; loop <= 14; ++loop) {
                const DecodedTrace &trace =
                    TraceLibrary::instance().decoded(loop, cfg);
                got.push_back(test::singleIssueCellLine(
                    m.label, cfg, loop, m.make(cfg)->run(trace)));
            }
        }
    }
    expectPinned(got);
}

TEST_P(SingleIssueGolden, RunBatchMatchesFixture)
{
    // One batch per loop holds every machine under every
    // configuration, as a table sweep would batch them.
    const std::vector<test::SingleIssueMachine> machines =
        test::singleIssueMachines();
    const auto &configs = standardConfigs();
    std::vector<std::string> got(machines.size() * configs.size() * 14);
    for (int loop = 1; loop <= 14; ++loop) {
        std::vector<std::unique_ptr<Simulator>> sims;
        std::vector<BatchLane> lanes;
        std::vector<std::size_t> slot;
        for (std::size_t m = 0; m < machines.size(); ++m) {
            for (std::size_t c = 0; c < configs.size(); ++c) {
                sims.push_back(machines[m].make(configs[c]));
                lanes.push_back(
                    { sims.back().get(),
                      &TraceLibrary::instance().decoded(loop,
                                                        configs[c]) });
                slot.push_back((m * configs.size() + c) * 14 +
                               std::size_t(loop - 1));
            }
        }
        const BatchOutcome out = runBatch(lanes);
        ASSERT_EQ(out.results.size(), lanes.size());
        for (std::size_t k = 0; k < lanes.size(); ++k) {
            const std::size_t m = k / configs.size();
            got[slot[k]] = test::singleIssueCellLine(
                machines[m].label, configs[k % configs.size()], loop,
                out.results[k]);
        }
    }
    expectPinned(got);
}

INSTANTIATE_TEST_SUITE_P(
    SteadyOnOff, SingleIssueGolden, ::testing::Bool(),
    [](const ::testing::TestParamInfo<bool> &info) {
        return std::string(info.param ? "steady" : "plain");
    });

} // namespace
} // namespace mfusim
