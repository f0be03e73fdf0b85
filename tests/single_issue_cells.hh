/**
 * @file
 * The single-issue cell grid pinned in golden/single_issue_cells.txt.
 *
 * SimpleSim::run() and ScoreboardSim::run() advance the same lane
 * transition that runBatch() advances block by block, so comparing
 * the two no longer checks the timing rules themselves.  This grid
 * pins every SimResult field of the four Table 1 machines, their
 * replicated-unit and bus/chaining variants, and the scoreboard
 * machines under every zero-window predictor, as recorded while the
 * scalar simulators and the batched kernel were separate code.
 */

#ifndef MFUSIM_TESTS_SINGLE_ISSUE_CELLS_HH
#define MFUSIM_TESTS_SINGLE_ISSUE_CELLS_HH

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mfusim/core/machine_config.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/simple_sim.hh"
#include "mfusim/spec/predictor.hh"

namespace mfusim
{
namespace test
{

/** One machine of the grid, built per configuration. */
struct SingleIssueMachine
{
    std::string label;      //!< fixture column 1, e.g. "cray/fuc2"
    std::function<std::unique_ptr<Simulator>(const MachineConfig &)>
        make;
};

inline std::vector<SingleIssueMachine>
singleIssueMachines()
{
    std::vector<SingleIssueMachine> m;
    const auto scoreboard = [](ScoreboardConfig org,
                               const std::string &pred = "") {
        return [org, pred](const MachineConfig &base) {
            MachineConfig cfg = base;
            if (!pred.empty())
                cfg.predictor = PredictorSpec::parse(pred);
            return std::unique_ptr<Simulator>(
                std::make_unique<ScoreboardSim>(org, cfg));
        };
    };
    m.push_back({ "simple", [](const MachineConfig &cfg) {
                     return std::unique_ptr<Simulator>(
                         std::make_unique<SimpleSim>(cfg));
                 } });
    const std::pair<const char *, ScoreboardConfig> orgs[] = {
        { "serialmem", ScoreboardConfig::serialMemory() },
        { "nonseg", ScoreboardConfig::nonSegmented() },
        { "cray", ScoreboardConfig::crayLike() },
    };
    for (const auto &[name, org] : orgs)
        m.push_back({ name, scoreboard(org) });
    for (const auto &[name, org] : orgs) {
        if (org.memDiscipline == MemDiscipline::kSerial)
            continue;
        ScoreboardConfig fuc = org;
        fuc.fuCopies = 2;
        m.push_back({ std::string(name) + "/fuc2", scoreboard(fuc) });
        ScoreboardConfig mp = org;
        mp.memPorts = 2;
        m.push_back({ std::string(name) + "/mp2", scoreboard(mp) });
    }
    ScoreboardConfig nochain = ScoreboardConfig::crayLike();
    nochain.vectorChaining = false;
    m.push_back({ "cray/nochain", scoreboard(nochain) });
    ScoreboardConfig nobus = ScoreboardConfig::crayLike();
    nobus.modelResultBus = false;
    m.push_back({ "cray/nobus", scoreboard(nobus) });
    for (const char *pred :
         { "btfn:w0", "taken:w0", "2bit:w0", "fixed:90:w0", "perfect" }) {
        for (const auto &[name, org] : orgs)
            m.push_back({ std::string(name) + ",pred=" + pred,
                          scoreboard(org, pred) });
    }
    return m;
}

/**
 * One fixture line: machine, configuration, loop, then cycles, the
 * five stall counters, steadyOpsSkipped (of a steady-state run) and
 * squashes.
 */
inline std::string
singleIssueCellLine(const std::string &machine, const MachineConfig &cfg,
                    int loop, const SimResult &r)
{
    std::ostringstream out;
    out << machine << ' ' << cfg.name() << ' ' << loop << ' '
        << r.cycles << ' ' << r.stalls.raw << ' ' << r.stalls.waw << ' '
        << r.stalls.structural << ' ' << r.stalls.resultBus << ' '
        << r.stalls.branch << ' ' << r.steadyOpsSkipped << ' '
        << r.squashes;
    return out.str();
}

} // namespace test
} // namespace mfusim

#endif // MFUSIM_TESTS_SINGLE_ISSUE_CELLS_HH
