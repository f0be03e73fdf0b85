/**
 * @file
 * FaultRegistry: spec parsing and deterministic trigger evaluation.
 */

#include "mfusim/core/faultpoint.hh"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "mfusim/core/error.hh"
#include "mfusim/core/lexical.hh"

namespace mfusim
{

namespace detail
{
std::atomic<bool> faultsArmed{ false };
} // namespace detail

const std::vector<FaultPointInfo> &
knownFaultPoints()
{
    static const std::vector<FaultPointInfo> points = {
        { "persist.write",
          "journal append write fails (mode 'torn': half a record "
          "reaches disk, as after a crash mid-write)" },
        { "persist.fsync", "journal fsync fails" },
        { "persist.load",
          "allocation failure while warm-loading the cache journal" },
        { "persist.compact", "journal compaction rewrite fails" },
        { "http.read",
          "socket read misbehaves (mode 'short': 1 byte per read; "
          "mode 'fail': hard error)" },
        { "http.write",
          "socket write misbehaves (mode 'short': 1 byte per write; "
          "mode 'fail': hard error)" },
        { "worker.die", "a serving worker thread dies mid-request" },
        { "worker.overrun",
          "request handling overruns its deadline and answers 503" },
    };
    return points;
}

/** One armed point: trigger parameters + counters. */
struct FaultRegistry::Rule
{
    std::uint64_t every = 0;    //!< fire on every Nth eligible eval
    std::uint64_t after = 0;    //!< skip the first N evals
    std::uint64_t times = 0;    //!< max fires; 0 = unlimited
    double prob = -1.0;         //!< per-eval probability; <0 = off
    std::string mode;           //!< site-interpreted word
    std::size_t order = 0;      //!< position in the spec (stats())

    std::uint64_t evaluations = 0;
    std::uint64_t fires = 0;
};

class FaultRegistry::Impl
{
  public:
    mutable std::mutex mutex;
    std::unordered_map<std::string, Rule> rules;
    std::string spec;
    std::uint64_t lcg = 1;
    std::function<void(const std::string &)> fireListener;

    /** Deterministic uniform draw in [0, 1). */
    double
    nextUniform()
    {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return double(lcg >> 11) * (1.0 / 9007199254740992.0);
    }
};

FaultRegistry &
FaultRegistry::instance()
{
    static FaultRegistry registry;
    return registry;
}

FaultRegistry::Impl &
FaultRegistry::impl() const
{
    static Impl impl;
    return impl;
}

namespace
{

bool
isKnownPoint(const std::string &name)
{
    for (const FaultPointInfo &info : knownFaultPoints())
        if (name == info.point)
            return true;
    return false;
}

std::uint64_t
parseCount(const std::string &entry, const std::string &value)
{
    if (const auto n = parseDecimal(value))
        return *n;
    throw ConfigError("fault spec '" + entry + "': '" + value +
                      "' is not a count (decimal digits within 64 bits)");
}

/**
 * A probability spelled digits[.digits] and within [0, 1]: no sign,
 * space, exponent or hex form, which strtod alone would take.
 */
double
parseProbability(const std::string &entry, const std::string &value)
{
    const auto isDigits = [](std::string_view text) {
        return !text.empty() &&
            std::all_of(text.begin(), text.end(),
                        [](char c) { return c >= '0' && c <= '9'; });
    };
    const std::size_t dot = value.find('.');
    const bool spelled = isDigits(std::string_view(value).substr(0, dot)) &&
        (dot == std::string::npos ||
         isDigits(std::string_view(value).substr(dot + 1)));
    const double prob =
        spelled ? std::strtod(value.c_str(), nullptr) : -1.0;
    if (!(prob >= 0.0 && prob <= 1.0))
        throw ConfigError("fault spec '" + entry + "': prob '" + value +
                          "' is not a decimal in [0, 1]");
    return prob;
}

} // namespace

void
FaultRegistry::configure(const std::string &spec)
{
    std::unordered_map<std::string, Rule> rules;
    std::uint64_t seed = 1;
    std::size_t order = 0;

    for (const std::string &entry : splitFields(spec, ',')) {
        if (entry.empty())
            continue;
        if (entry.rfind("seed=", 0) == 0) {
            seed = parseCount(entry, entry.substr(5));
            continue;
        }
        const std::vector<std::string> parts = splitFields(entry, ':');
        const std::string &point = parts[0];
        if (!isKnownPoint(point)) {
            std::string known;
            for (const FaultPointInfo &info : knownFaultPoints())
                known += std::string(known.empty() ? "" : ", ") +
                    info.point;
            throw ConfigError("unknown fault point '" + point +
                              "' (known: " + known + ")");
        }
        Rule rule;
        rule.order = order++;
        for (std::size_t i = 1; i < parts.size(); ++i) {
            const std::string &arg = parts[i];
            if (arg == "once") {
                rule.times = 1;
            } else if (arg.rfind("every=", 0) == 0) {
                rule.every = parseCount(entry, arg.substr(6));
                if (rule.every == 0)
                    throw ConfigError("fault spec '" + entry +
                                      "': every=0 is meaningless");
            } else if (arg.rfind("after=", 0) == 0) {
                rule.after = parseCount(entry, arg.substr(6));
            } else if (arg.rfind("times=", 0) == 0) {
                rule.times = parseCount(entry, arg.substr(6));
            } else if (arg.rfind("prob=", 0) == 0) {
                rule.prob = parseProbability(entry, arg.substr(5));
            } else if (!arg.empty() &&
                       arg.find('=') == std::string::npos) {
                rule.mode = arg;
            } else {
                throw ConfigError("fault spec '" + entry +
                                  "': unrecognized argument '" +
                                  arg + "'");
            }
        }
        if (rules.count(point))
            throw ConfigError("fault point '" + point +
                              "' listed twice");
        rules.emplace(point, std::move(rule));
    }

    Impl &state = impl();
    std::lock_guard<std::mutex> lock(state.mutex);
    state.rules = std::move(rules);
    state.spec = spec;
    state.lcg = seed;
    detail::faultsArmed.store(!state.rules.empty(),
                              std::memory_order_relaxed);
}

void
FaultRegistry::configureFromEnv()
{
    const char *spec = std::getenv("MFUSIM_FAULTS");
    configure(spec == nullptr ? "" : spec);
}

bool
FaultRegistry::armed() const
{
    return detail::faultsArmed.load(std::memory_order_relaxed);
}

std::string
FaultRegistry::spec() const
{
    Impl &state = impl();
    std::lock_guard<std::mutex> lock(state.mutex);
    return state.spec;
}

bool
FaultRegistry::shouldFire(const std::string &point)
{
    Impl &state = impl();
    std::function<void(const std::string &)> listener;
    {
        std::lock_guard<std::mutex> lock(state.mutex);
        const auto it = state.rules.find(point);
        if (it == state.rules.end())
            return false;
        Rule &rule = it->second;
        ++rule.evaluations;
        if (rule.evaluations <= rule.after)
            return false;
        if (rule.times != 0 && rule.fires >= rule.times)
            return false;
        if (rule.every > 1 &&
            (rule.evaluations - rule.after) % rule.every != 0)
            return false;
        if (rule.prob >= 0.0 && state.nextUniform() >= rule.prob)
            return false;
        ++rule.fires;
        listener = state.fireListener;  // copy: invoke outside lock
    }
    if (listener)
        listener(point);
    return true;
}

void
FaultRegistry::setFireListener(
    std::function<void(const std::string &)> listener)
{
    Impl &state = impl();
    std::lock_guard<std::mutex> lock(state.mutex);
    state.fireListener = std::move(listener);
}

std::string
FaultRegistry::mode(const std::string &point) const
{
    Impl &state = impl();
    std::lock_guard<std::mutex> lock(state.mutex);
    const auto it = state.rules.find(point);
    return it == state.rules.end() ? std::string() : it->second.mode;
}

std::vector<FaultPointStats>
FaultRegistry::stats() const
{
    Impl &state = impl();
    std::lock_guard<std::mutex> lock(state.mutex);
    std::vector<FaultPointStats> out(state.rules.size());
    for (const auto &[point, rule] : state.rules)
        out[rule.order] = FaultPointStats{ point, rule.mode,
                                           rule.evaluations,
                                           rule.fires };
    return out;
}

void
FaultRegistry::reset()
{
    Impl &state = impl();
    std::lock_guard<std::mutex> lock(state.mutex);
    state.rules.clear();
    state.spec.clear();
    state.lcg = 1;
    detail::faultsArmed.store(false, std::memory_order_relaxed);
}

} // namespace mfusim
