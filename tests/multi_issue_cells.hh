/**
 * @file
 * The multiple-issue cell grid pinned in golden/multi_issue_cells.txt.
 *
 * This grid pins every SimResult field of 36 machines of the
 * MultiIssueSim (in-order and out-of-order issue) and RuuSim
 * families, recorded before either family was rebuilt: seq/ooo at widths 2 and 8 and
 * the RUU at three (width, size) points, each with its N-bus,
 * single-bus and crossbar result buses, plus one replicated-unit
 * variant per family, then seq/ooo at widths 1 and 4 with the same
 * three buses.  Every machine runs unarmed over all 14 loops and the
 * four standard configurations, and under four predictors over the
 * 14 loops and M11BR5/M5BR2.
 *
 * golden/multi_issue_obs.txt pins the instrumented runs of seq/ooo at
 * widths 1, 2, 4 and 8: the stall attribution and a digest of the
 * audit event and stall-sample streams (multiIssueObsLine()).
 */

#ifndef MFUSIM_TESTS_MULTI_ISSUE_CELLS_HH
#define MFUSIM_TESTS_MULTI_ISSUE_CELLS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "mfusim/core/machine_config.hh"
#include "mfusim/obs/metrics.hh"
#include "mfusim/obs/pipe_trace.hh"
#include "mfusim/obs/run_metrics.hh"
#include "mfusim/sim/multi_issue_sim.hh"
#include "mfusim/sim/ruu_sim.hh"

namespace mfusim
{
namespace test
{

/** One machine of the grid, built per configuration. */
struct MultiIssueMachine
{
    std::string label;      //!< fixture column 1, e.g. "ruu:4:50,1bus"
    std::function<std::unique_ptr<Simulator>(const MachineConfig &)>
        make;
};

inline std::vector<MultiIssueMachine>
multiIssueMachines()
{
    std::vector<MultiIssueMachine> m;
    const std::pair<const char *, BusKind> buses[] = {
        { "", BusKind::kPerUnit },
        { ",1bus", BusKind::kSingle },
        { ",xbar", BusKind::kCrossbar },
    };
    const auto multi = [](MultiIssueConfig org) {
        return [org](const MachineConfig &cfg) {
            return std::unique_ptr<Simulator>(
                std::make_unique<MultiIssueSim>(org, cfg));
        };
    };
    const auto ruu = [](RuuConfig org) {
        return [org](const MachineConfig &cfg) {
            return std::unique_ptr<Simulator>(
                std::make_unique<RuuSim>(org, cfg));
        };
    };
    for (const bool ooo : { false, true }) {
        const std::string family = ooo ? "ooo:" : "seq:";
        for (const unsigned width : { 2u, 8u }) {
            for (const auto &[suffix, bus] : buses) {
                m.push_back({ family + std::to_string(width) + suffix,
                              multi({ width, ooo, bus }) });
            }
        }
        MultiIssueConfig replicated{ 4, ooo, BusKind::kPerUnit };
        replicated.fuCopies = 2;
        replicated.memPorts = 2;
        m.push_back({ family + "4/fuc2mp2", multi(replicated) });
    }
    const std::pair<unsigned, unsigned> ruus[] = {
        { 1, 10 }, { 4, 50 }, { 8, 256 },
    };
    for (const auto &[width, size] : ruus) {
        for (const auto &[suffix, bus] : buses) {
            m.push_back({ "ruu:" + std::to_string(width) + ":" +
                              std::to_string(size) + suffix,
                          ruu({ width, size, bus }) });
        }
    }
    RuuConfig replicated{ 4, 50, BusKind::kPerUnit };
    replicated.fuCopies = 2;
    replicated.memPorts = 2;
    m.push_back({ "ruu:4:50/fuc2mp2", ruu(replicated) });
    for (const bool ooo : { false, true }) {
        const std::string family = ooo ? "ooo:" : "seq:";
        for (const unsigned width : { 1u, 4u }) {
            for (const auto &[suffix, bus] : buses) {
                m.push_back({ family + std::to_string(width) + suffix,
                              multi({ width, ooo, bus }) });
            }
        }
    }
    return m;
}

/** The predictors the grid arms ("" = none). */
inline const std::vector<std::string> &
multiIssuePredictors()
{
    static const std::vector<std::string> preds = {
        "", "btfn:w0", "perfect", "2bit", "fixed:90",
    };
    return preds;
}

/** The configurations a machine runs under @p pred. */
inline std::vector<MachineConfig>
multiIssueConfigs(const std::string &pred)
{
    if (pred.empty()) {
        const auto &all = standardConfigs();
        return { all.begin(), all.end() };
    }
    return { configM11BR5(), configM5BR2() };
}

/** Index of the steadyOpsSkipped field in a fixture line. */
constexpr std::size_t kSteadySkippedField = 12;

/**
 * One fixture line: machine, predictor ("-" for none), configuration,
 * loop, then instructions, cycles, hasStalls, the stall counters of
 * causes kRaw..kBranch, steadyOpsSkipped (of a steady-state run),
 * squashes and wrongPathOps.
 */
inline std::string
multiIssueCellLine(const std::string &machine, const std::string &pred,
                   const MachineConfig &cfg, int loop,
                   const SimResult &r)
{
    std::ostringstream out;
    out << machine << ' ' << (pred.empty() ? "-" : pred) << ' '
        << cfg.name() << ' ' << loop << ' ' << r.instructions << ' '
        << r.cycles << ' ' << r.hasStalls << ' ';
    for (unsigned c = 0; c <= unsigned(StallCause::kBranch); ++c)
        out << r.stalls[c] << ' ';
    out << r.steadyOpsSkipped << ' ' << r.squashes << ' '
        << r.wrongPathOps;
    return out.str();
}

/**
 * A PipeTraceRecorder that also folds the audit event stream and the
 * stall-sample stream into two FNV-1a 64 digests.
 */
class DigestingRecorder : public PipeTraceRecorder
{
  public:
    void
    onEvent(const AuditEvent &event) override
    {
        PipeTraceRecorder::onEvent(event);
        mix(events, event.cycle, 8);
        mix(events, event.op, 8);
        mix(events, std::uint32_t(event.unit), 4);
        mix(events, std::uint8_t(event.phase), 1);
    }

    void
    onStall(const StallSample &sample) override
    {
        PipeTraceRecorder::onStall(sample);
        mix(stallSamples, sample.from, 8);
        mix(stallSamples, sample.cycles, 8);
        mix(stallSamples, sample.op, 8);
        mix(stallSamples, std::uint8_t(sample.cause), 1);
    }

    std::uint64_t events = kFnvBasis;
    std::uint64_t stallSamples = kFnvBasis;

  private:
    static constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

    /** Fold the low @p bytes bytes of @p value, least significant
     *  first. */
    static void
    mix(std::uint64_t &hash, std::uint64_t value, unsigned bytes)
    {
        for (unsigned b = 0; b < bytes; ++b) {
            hash ^= (value >> (8 * b)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    }
};

/**
 * One golden/multi_issue_obs.txt line: @p sim's instrumented run of
 * @p trace (loop @p loop under @p pred, "-" for none): machine,
 * predictor, loop, cycles, the cycles.stall.<cause> totals of
 * populateRunMetrics() in StallCause order, then the event and
 * stall-sample digests in hex.
 */
inline std::string
multiIssueObsLine(const std::string &machine, const std::string &pred,
                  int loop, Simulator &sim, const DecodedTrace &trace)
{
    DigestingRecorder rec;
    sim.attachAudit(&rec);
    const SimResult r = sim.run(trace);
    sim.attachAudit(nullptr);
    MetricsRegistry reg;
    populateRunMetrics(reg, trace, rec, r, sim);

    std::ostringstream out;
    out << machine << ' ' << (pred.empty() ? "-" : pred) << ' ' << loop
        << ' ' << r.cycles;
    for (unsigned c = 0; c < kNumStallCauses; ++c) {
        out << ' '
            << reg.counterValue(std::string("cycles.stall.") +
                                stallCauseName(StallCause(c)));
    }
    out << ' ' << std::hex << rec.events << ' ' << rec.stallSamples;
    return out.str();
}

} // namespace test
} // namespace mfusim

#endif // MFUSIM_TESTS_MULTI_ISSUE_CELLS_HH
