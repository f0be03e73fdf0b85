/**
 * @file
 * Spec string parsing shared by the CLI and the serve daemon.
 */

#include "mfusim/harness/spec_parse.hh"

#include <charconv>
#include <sstream>
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
    // Split "name,opt,opt" on commas.
    std::vector<std::string> parts;
    std::stringstream in(spec);
    std::string part;
    while (std::getline(in, part, ','))
        parts.push_back(part);
    if (parts.empty())
        throw ConfigError("empty machine spec");

    BusKind bus = BusKind::kPerUnit;
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
        if (parts[i] == "1bus")
            bus = BusKind::kSingle;
        else if (parts[i] == "xbar")
            bus = BusKind::kCrossbar;
        else if (parts[i] == "btfn")
            setModel(parts[i], "btfn:w0");
        else if (parts[i] == "oracle")
            setModel(parts[i], "perfect");
        else if (parts[i].rfind("pred=", 0) == 0)
            setModel(parts[i], parts[i].substr(5));
        else
            throw ConfigError("unknown machine option '" + parts[i] +
                              "'");
    }

    // Split the machine name on colons: name[:w[:size]].
    std::vector<std::string> fields;
    std::stringstream name_in(parts[0]);
    while (std::getline(name_in, part, ':'))
        fields.push_back(part);
    if (fields.empty())
        throw ConfigError("empty machine spec");

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

    if (fields[0] == "simple") {
        if (!model.empty())
            throw BranchModelError("the 'simple' machine has no branch"
                                   " overlap to model; drop '" +
                                   model + "'");
        return std::make_unique<SimpleSim>(machineCfg);
    }
    if (fields[0] == "serialmem" || fields[0] == "nonseg" ||
        fields[0] == "cray") {
        ScoreboardConfig org =
            fields[0] == "serialmem" ?
                ScoreboardConfig::serialMemory() :
                fields[0] == "nonseg" ?
                    ScoreboardConfig::nonSegmented() :
                    ScoreboardConfig::crayLike();
        return std::make_unique<ScoreboardSim>(org, machineCfg);
    }
    if (fields[0] == "seq" || fields[0] == "ooo") {
        MultiIssueConfig org{ arg(1), fields[0] == "ooo", bus };
        return std::make_unique<MultiIssueSim>(org, machineCfg);
    }
    if (fields[0] == "ruu") {
        RuuConfig org{ arg(1), arg(2), bus };
        return std::make_unique<RuuSim>(org, machineCfg);
    }
    if (fields[0] == "cdc") {
        Cdc6600Config org;
        // ",xbar" lifts the single-result-bus completion model.
        org.modelResultBus = bus != BusKind::kCrossbar;
        return std::make_unique<Cdc6600Sim>(org, machineCfg);
    }
    if (fields[0] == "tomasulo") {
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
