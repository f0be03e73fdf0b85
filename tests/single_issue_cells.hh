/**
 * @file
 * The single-issue cell grid pinned in golden/single_issue_cells.txt.
 *
 * runBatch() runs each lane through its simulator's run(), so
 * comparing the two does not check the timing rules themselves.
 * This grid pins every SimResult field of the four Table 1 machines,
 * their replicated-unit and bus/chaining variants, and the
 * scoreboard machines under every zero-window predictor, as recorded
 * while the scalar simulators and a batched kernel were separate
 * code.  The CDC 6600 and Tomasulo machines of section 3.3 follow:
 * both result bus models, four station/CDB counts, and three
 * zero-window predictors on each.
 */

#ifndef MFUSIM_TESTS_SINGLE_ISSUE_CELLS_HH
#define MFUSIM_TESTS_SINGLE_ISSUE_CELLS_HH

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mfusim/core/machine_config.hh"
#include "mfusim/sim/cdc6600_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/simple_sim.hh"
#include "mfusim/sim/tomasulo_sim.hh"
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
    const auto cdc = [](bool bus, const std::string &pred = "") {
        return [bus, pred](const MachineConfig &base) {
            MachineConfig cfg = base;
            if (!pred.empty())
                cfg.predictor = PredictorSpec::parse(pred);
            Cdc6600Config org;
            org.modelResultBus = bus;
            return std::unique_ptr<Simulator>(
                std::make_unique<Cdc6600Sim>(org, cfg));
        };
    };
    const auto tomasulo = [](unsigned rs, unsigned cdb,
                             const std::string &pred = "") {
        return [rs, cdb, pred](const MachineConfig &base) {
            MachineConfig cfg = base;
            if (!pred.empty())
                cfg.predictor = PredictorSpec::parse(pred);
            TomasuloConfig org;
            org.stationsPerFu = rs;
            org.cdbCount = cdb;
            return std::unique_ptr<Simulator>(
                std::make_unique<TomasuloSim>(org, cfg));
        };
    };
    m.push_back({ "cdc", cdc(true) });
    m.push_back({ "cdc,xbar", cdc(false) });
    for (const auto &[rs, cdb] : { std::pair{ 1u, 1u }, std::pair{ 3u, 1u },
                                   std::pair{ 3u, 2u },
                                   std::pair{ 8u, 2u } }) {
        m.push_back({ "tomasulo:" + std::to_string(rs) + ':' +
                          std::to_string(cdb),
                      tomasulo(rs, cdb) });
    }
    const TomasuloConfig tomasulo_default;
    for (const char *pred : { "btfn:w0", "2bit:w0", "perfect" }) {
        m.push_back({ std::string("cdc,pred=") + pred, cdc(true, pred) });
        m.push_back({ std::string("tomasulo,pred=") + pred,
                      tomasulo(tomasulo_default.stationsPerFu,
                               tomasulo_default.cdbCount, pred) });
    }
    return m;
}

/**
 * One fixture line: machine, configuration, loop, then cycles, the
 * stall counters of causes kRaw..kBranch, steadyOpsSkipped (of a
 * steady-state run) and squashes.
 */
inline std::string
singleIssueCellLine(const std::string &machine, const MachineConfig &cfg,
                    int loop, const SimResult &r)
{
    std::ostringstream out;
    out << machine << ' ' << cfg.name() << ' ' << loop << ' '
        << r.cycles << ' ';
    for (unsigned c = 0; c <= unsigned(StallCause::kBranch); ++c)
        out << r.stalls[c] << ' ';
    out << r.steadyOpsSkipped << ' ' << r.squashes;
    return out.str();
}

} // namespace test
} // namespace mfusim

#endif // MFUSIM_TESTS_SINGLE_ISSUE_CELLS_HH
