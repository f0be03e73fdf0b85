/**
 * @file
 * Spec string parsing shared by the CLI and the serve daemon.
 */

#include "mfusim/harness/spec_parse.hh"

#include <charconv>
#include <system_error>
#include <vector>

#include "mfusim/core/error.hh"
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

/** @p text split on @p sep, keeping empty fields, trailing ones too. */
std::vector<std::string>
splitKeepingEmpty(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::size_t from = 0;
    for (std::size_t at; (at = text.find(sep, from)) != std::string::npos;
         from = at + 1)
        out.push_back(text.substr(from, at - from));
    out.push_back(text.substr(from));
    return out;
}

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

Kernel
parseKernelSpec(const std::string &spec)
{
    try {
        if (!spec.empty() && spec.back() == 'v') {
            return buildVectorizedKernel(
                std::stoi(spec.substr(0, spec.size() - 1)));
        }
        const auto x = spec.find('x');
        if (x == std::string::npos)
            return buildKernel(std::stoi(spec));
        return buildUnrolledKernel(std::stoi(spec.substr(0, x)),
                                   std::stoi(spec.substr(x + 1)));
    } catch (const Error &) {
        throw;
    } catch (const std::exception &e) {
        throw ConfigError("bad loop '" + spec + "': " + e.what());
    }
}

DynTrace
traceForLoopSpec(const std::string &spec)
{
    const Kernel kernel = parseKernelSpec(spec);
    return DynTrace("LL" + spec, kernel.program.code,
                    validatedLog(kernel, spec));
}

std::shared_ptr<const TraceBody>
bodyForLoopSpec(const std::string &spec)
{
    const Kernel kernel = parseKernelSpec(spec);
    return std::make_shared<const TraceBody>(
        "LL" + spec, kernel.program.code, validatedLog(kernel, spec));
}

std::unique_ptr<Simulator>
parseMachineSpec(const std::string &spec, const MachineConfig &cfg)
{
    // "name[:field...],opt,opt": each option kind at most once, no
    // empty option, and no field or option the machine does not read.
    const std::vector<std::string> parts = splitKeepingEmpty(spec, ',');
    const std::vector<std::string> fields =
        splitKeepingEmpty(parts[0], ':');
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
        // from_chars() into an unsigned takes no sign, space or
        // prefix, and reports overflow.
        const std::string &field = fields[i];
        const char *const end = field.data() + field.size();
        unsigned value = 0;
        const auto [stop, ec] =
            std::from_chars(field.data(), end, value);
        if (ec != std::errc() || stop != end || value > kMaxSpecField)
            throw ConfigError("bad numeric field '" + field +
                              "' in machine spec '" + spec +
                              "' (want decimal digits, at most " +
                              std::to_string(kMaxSpecField) + ")");
        return value;
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
