/**
 * @file
 * Spec string parsing shared by the CLI and the serve daemon.
 */

#include "mfusim/harness/spec_parse.hh"

#include <algorithm>
#include <vector>

#include "mfusim/core/error.hh"
#include "mfusim/core/lexical.hh"
#include "mfusim/sim/cdc6600_sim.hh"
#include "mfusim/sim/multi_issue_sim.hh"
#include "mfusim/sim/ruu_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/simple_sim.hh"
#include "mfusim/sim/tomasulo_sim.hh"

namespace mfusim
{

namespace
{

/**
 * Largest numeric machine-spec field (issue width, buffer size,
 * station and bus counts): a machine this size still allocates its
 * per-run scratch.
 */
constexpr unsigned kMaxSpecField = 65536;

} // namespace

MachineConfig
parseConfigSpec(const std::string &name)
{
    for (const MachineConfig &cfg : standardConfigs()) {
        if (cfg.name() == name)
            return cfg;
    }
    throw ConfigError("unknown config '" + name + "'");
}

LoopSpec
parseLoopSpec(std::string_view text)
{
    const auto bad = [&](const char *why) {
        return ConfigError("bad loop '" + std::string(text) + "' (" +
                           why + ")");
    };
    LoopSpec loop;
    loop.vectorized = !text.empty() && text.back() == 'v';
    // The id ends at the 'v' or the 'x', if there is one.
    const std::size_t idEnd = loop.vectorized ?
        text.size() - 1 : std::min(text.find('x'), text.size());
    const auto id = parseDecimal<unsigned>(text.substr(0, idEnd), 14);
    if (!id || *id == 0)
        throw bad("want <id>, <id>x<factor> or <id>v with <id> 1..14, "
                  "e.g. 5, 1x4, 7v");
    loop.id = int(*id);
    loop.name = std::to_string(loop.id);
    if (loop.vectorized) {
        if (std::ranges::count(vectorizedLoopIds(), loop.id) == 0)
            throw bad("no vectorized variant; use 1, 7 or 12");
        loop.name += 'v';
    } else if (idEnd < text.size()) {
        const auto factor = parseDecimal<unsigned>(text.substr(idEnd + 1), 8);
        if (!factor || *factor == 0 || (*factor & (*factor - 1)) != 0)
            throw bad("unroll factor must be 1, 2, 4 or 8");
        if (std::ranges::count(unrollableLoopIds(), loop.id) == 0)
            throw bad("no unrolled variant; use 1, 5, 11 or 12");
        loop.unroll = int(*factor);
        loop.name += 'x' + std::to_string(loop.unroll);
    }
    return loop;
}

Kernel
buildLoopKernel(const LoopSpec &loop)
{
    if (loop.vectorized)
        return buildVectorizedKernel(loop.id);
    if (loop.unroll != 0)
        return buildUnrolledKernel(loop.id, loop.unroll);
    return buildKernel(loop.id);
}

DynTrace
traceForLoopSpec(const LoopSpec &loop)
{
    const Kernel kernel = buildLoopKernel(loop);
    return DynTrace("LL" + loop.name, kernel.program.code,
                    validatedLog(kernel, loop.name));
}

std::shared_ptr<const TraceBody>
bodyForLoopSpec(const LoopSpec &loop)
{
    const Kernel kernel = buildLoopKernel(loop);
    return std::make_shared<const TraceBody>(
        "LL" + loop.name, kernel.program.code,
        validatedLog(kernel, loop.name));
}

std::unique_ptr<Simulator>
parseMachineSpec(const std::string &spec, const MachineConfig &cfg)
{
    // "name[:field...],opt,opt": each option kind at most once, no
    // empty option, and no field or option the machine does not read.
    const std::vector<std::string> parts = splitFields(spec, ',');
    const std::vector<std::string> fields =
        splitFields(parts[0], ':');
    if (fields[0].empty())
        throw ConfigError("empty machine spec");

    std::string busOption;  // "1bus" or "xbar", if given
    // The branch model: ",pred=<spec>" arms a predictor on this
    // machine's copy of the config; ",btfn" is exactly
    // ",pred=btfn:w0" and ",oracle" exactly ",pred=perfect".  At most
    // one per machine, and none on top of a predictor the caller
    // already armed (CLI --predictor, request "predictor" field).
    MachineConfig machineCfg = cfg;
    std::string model;      // the option that set it
    const auto setModel = [&](const std::string &option,
                              const std::string &predictor) {
        if (!model.empty())
            throw BranchModelError("machine spec '" + spec +
                                   "' sets two branch models ('" +
                                   model + "' and '" + option + "')");
        if (cfg.predictor.armed())
            throw BranchModelError(
                "machine spec '" + spec + "' sets branch model '" +
                option + "' on top of the already armed predictor " +
                cfg.predictor.key());
        model = option;
        machineCfg.predictor = PredictorSpec::parse(predictor);
    };
    for (std::size_t i = 1; i < parts.size(); ++i) {
        const std::string &option = parts[i];
        if (option.empty()) {
            throw ConfigError("machine spec '" + spec +
                              "' has an empty option");
        } else if (option == "1bus" || option == "xbar") {
            if (!busOption.empty())
                throw ConfigError("machine spec '" + spec +
                                  "' sets two bus options ('" +
                                  busOption + "' and '" + option + "')");
            busOption = option;
        } else if (option == "btfn") {
            setModel(option, "btfn:w0");
        } else if (option == "oracle") {
            setModel(option, "perfect");
        } else if (option.rfind("pred=", 0) == 0) {
            setModel(option, option.substr(5));
        } else {
            throw ConfigError("unknown machine option '" + option + "'");
        }
    }
    const BusKind bus = busOption == "1bus" ? BusKind::kSingle :
                        busOption == "xbar" ? BusKind::kCrossbar :
                                              BusKind::kPerUnit;

    const auto arg = [&](std::size_t i) -> unsigned {
        if (i >= fields.size())
            throw ConfigError("machine spec '" + spec +
                              "' needs more fields");
        const std::string &field = fields[i];
        if (const auto value = parseDecimal<unsigned>(field, kMaxSpecField))
            return *value;
        throw ConfigError("bad numeric field '" + field +
                          "' in machine spec '" + spec +
                          "' (want decimal digits, at most " +
                          std::to_string(kMaxSpecField) + ")");
    };
    // What the named machine reads: at most @p maxFields colon
    // fields, and the bus option only if @p readsBus.
    const auto takes = [&](std::size_t maxFields, bool readsBus) {
        if (fields.size() > maxFields)
            throw ConfigError("machine spec '" + spec +
                              "' has an extra field '" +
                              fields[maxFields] + "'");
        if (!readsBus && !busOption.empty())
            throw ConfigError("machine '" + fields[0] +
                              "' has no bus choice; drop '" +
                              busOption + "'");
    };

    if (fields[0] == "simple") {
        takes(1, false);
        if (!model.empty())
            throw BranchModelError("the 'simple' machine has no branch"
                                   " overlap to model; drop '" +
                                   model + "'");
        return std::make_unique<SimpleSim>(machineCfg);
    }
    if (fields[0] == "serialmem" || fields[0] == "nonseg" ||
        fields[0] == "cray") {
        takes(1, false);
        ScoreboardConfig org =
            fields[0] == "serialmem" ?
                ScoreboardConfig::serialMemory() :
                fields[0] == "nonseg" ?
                    ScoreboardConfig::nonSegmented() :
                    ScoreboardConfig::crayLike();
        return std::make_unique<ScoreboardSim>(org, machineCfg);
    }
    if (fields[0] == "seq" || fields[0] == "ooo") {
        takes(2, true);
        MultiIssueConfig org{ arg(1), fields[0] == "ooo", bus };
        return std::make_unique<MultiIssueSim>(org, machineCfg);
    }
    if (fields[0] == "ruu") {
        takes(3, true);
        RuuConfig org{ arg(1), arg(2), bus };
        return std::make_unique<RuuSim>(org, machineCfg);
    }
    if (fields[0] == "cdc") {
        takes(1, true);
        Cdc6600Config org;
        // ",xbar" lifts the single-result-bus completion model.
        org.modelResultBus = bus != BusKind::kCrossbar;
        return std::make_unique<Cdc6600Sim>(org, machineCfg);
    }
    if (fields[0] == "tomasulo") {
        takes(3, false);
        TomasuloConfig org;
        if (fields.size() > 1)
            org.stationsPerFu = arg(1);
        if (fields.size() > 2)
            org.cdbCount = arg(2);
        return std::make_unique<TomasuloSim>(org, machineCfg);
    }
    throw ConfigError("unknown machine '" + parts[0] + "'");
}

} // namespace mfusim
