/**
 * @file
 * PredictorSpec parsing / keys and the shared prediction replay.
 */

#include "mfusim/spec/predictor.hh"

#include "mfusim/core/decoded_trace.hh"
#include "mfusim/core/error.hh"
#include "mfusim/core/lexical.hh"

#include <atomic>

namespace mfusim
{

namespace
{

bool
isPow2(unsigned v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** splitmix64: the usual seeded hash for the kFixed outcome stream. */
std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Largest numeric predictor field (table size, window, seed). */
constexpr unsigned kMaxPredictorField = 100000000;

unsigned
parseNumber(const std::string &text, const std::string &field)
{
    if (const auto v = parseDecimal<unsigned>(text, kMaxPredictorField))
        return *v;
    throw ConfigError("predictor: bad " + field + " '" + text +
                      "' (want decimal digits, at most " +
                      std::to_string(kMaxPredictorField) + ")");
}

} // namespace

std::string
PredictorSpec::key() const
{
    std::string base;
    switch (kind) {
      case Kind::kNone:    return "";
      case Kind::kPerfect: base = "perfect"; break;
      case Kind::kTaken:   base = "taken"; break;
      case Kind::kBtfn:    base = "btfn"; break;
      case Kind::kTwoBit:
        base = "2bit:" + std::to_string(tableSize);
        break;
      case Kind::kFixed:
        base = "fixed:" + std::to_string(accuracyPct) + ":s" +
            std::to_string(seed);
        break;
    }
    return base + ":w" + std::to_string(wrongPathWindow);
}

PredictorSpec
PredictorSpec::parse(const std::string &text)
{
    if (text.empty())
        throw ConfigError("predictor: empty spec");

    const std::vector<std::string> parts = splitFields(text, ':');

    PredictorSpec spec;
    const std::string &head = parts[0];
    std::size_t next = 1;
    if (head == "perfect") {
        spec.kind = Kind::kPerfect;
    } else if (head == "taken") {
        spec.kind = Kind::kTaken;
    } else if (head == "btfn") {
        spec.kind = Kind::kBtfn;
    } else if (head == "2bit") {
        spec.kind = Kind::kTwoBit;
        if (next < parts.size() && !parts[next].empty() &&
            parts[next][0] != 'w' && parts[next][0] != 's')
            spec.tableSize = parseNumber(parts[next++], "table size");
    } else if (head == "fixed") {
        spec.kind = Kind::kFixed;
        if (next >= parts.size() || parts[next].empty() ||
            parts[next][0] == 'w' || parts[next][0] == 's')
            throw ConfigError(
                "predictor: fixed needs an accuracy, e.g. fixed:90");
        spec.accuracyPct = parseNumber(parts[next++], "accuracy");
    } else {
        throw ConfigError(
            "predictor: unknown kind '" + head +
            "' (want perfect|taken|btfn|2bit[:N]|fixed:PCT)");
    }

    // Each option at most once: a second ":wN" or ":sN" is an error
    // naming both, not a silent override.
    std::string window, seed;
    const auto once = [&](std::string &seen, const std::string &part) {
        if (!seen.empty())
            throw ConfigError("predictor: '" + text + "' sets '" +
                              seen + "' and '" + part + "'");
        seen = part;
    };
    for (; next < parts.size(); ++next) {
        const std::string &part = parts[next];
        if (part.size() > 1 && part[0] == 'w') {
            once(window, part);
            spec.wrongPathWindow =
                parseNumber(part.substr(1), "wrong-path window");
        } else if (part.size() > 1 && part[0] == 's' &&
                   spec.kind == Kind::kFixed) {
            once(seed, part);
            spec.seed = parseNumber(part.substr(1), "seed");
        } else {
            throw ConfigError("predictor: bad option '" + part +
                              "' in '" + text + "'");
        }
    }

    spec.validate();
    return spec;
}

void
PredictorSpec::validate() const
{
    if (kind == Kind::kNone)
        return;
    if (kind == Kind::kTwoBit &&
        (!isPow2(tableSize) || tableSize > 1u << 20))
        throw ConfigError(
            "predictor: table size must be a power of two <= 2^20, "
            "got " + std::to_string(tableSize));
    if (kind == Kind::kFixed && accuracyPct > 100)
        throw ConfigError("predictor: accuracy must be in [0,100], "
                          "got " + std::to_string(accuracyPct));
    if (wrongPathWindow > 4096)
        throw ConfigError(
            "predictor: wrong-path window must be in [0,4096], got " +
            std::to_string(wrongPathWindow));
}

void
PredictorSpec::requireNoWrongPath(const std::string &machine) const
{
    // A perfect predictor never mispredicts, so its window is moot.
    if (armed() && kind != Kind::kPerfect && wrongPathWindow != 0)
        throw ConfigError(
            machine + ": a single-issue machine fetches no wrong path;"
            " arm its predictor with a zero window (e.g. btfn:w0), "
            "got " + key());
}

std::vector<std::uint8_t>
precomputePredictions(const DecodedTrace &trace,
                      const PredictorSpec &spec)
{
    const std::size_t n = trace.size();
    std::vector<std::uint8_t> ok(n, 1);
    if (!spec.armed())
        return ok;

    // 2-bit saturating counters, direct-mapped on the static
    // instruction index, initialized weakly-taken (2).  State
    // advances on every retired branch in trace order.
    std::vector<std::uint8_t> table;
    if (spec.kind == PredictorSpec::Kind::kTwoBit)
        table.assign(spec.tableSize, 2);

    std::uint64_t ordinal = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!trace.isBranch(i))
            continue;
        const bool taken = trace.taken(i);
        bool correct = true;
        switch (spec.kind) {
          case PredictorSpec::Kind::kNone:
          case PredictorSpec::Kind::kPerfect:
            break;
          case PredictorSpec::Kind::kTaken:
            correct = taken;
            break;
          case PredictorSpec::Kind::kBtfn:
            correct = trace.btfnCorrect(i);
            break;
          case PredictorSpec::Kind::kTwoBit: {
            std::uint8_t &ctr =
                table[trace.staticIdx(i) & (spec.tableSize - 1)];
            correct = (ctr >= 2) == taken;
            if (taken) {
                if (ctr < 3)
                    ++ctr;
            } else if (ctr > 0) {
                --ctr;
            }
            break;
          }
          case PredictorSpec::Kind::kFixed:
            correct = splitmix64(spec.seed ^ ordinal) % 100 <
                spec.accuracyPct;
            break;
        }
        ok[i] = correct ? 1 : 0;
        ++ordinal;
    }
    return ok;
}

// ------------------------------------------------------ telemetry

namespace
{

std::atomic<std::uint64_t> g_squashes{ 0 };
std::atomic<std::uint64_t> g_wrong_path_ops{ 0 };
std::atomic<std::uint64_t> g_mispredict_cycles{ 0 };

} // namespace

void
recordSpecRun(std::uint64_t squashes, std::uint64_t wrongPathOps,
              std::uint64_t mispredictCycles)
{
    g_squashes.fetch_add(squashes, std::memory_order_relaxed);
    g_wrong_path_ops.fetch_add(wrongPathOps,
                               std::memory_order_relaxed);
    g_mispredict_cycles.fetch_add(mispredictCycles,
                                  std::memory_order_relaxed);
}

SpecTelemetry
specTelemetry()
{
    return { g_squashes.load(std::memory_order_relaxed),
             g_wrong_path_ops.load(std::memory_order_relaxed),
             g_mispredict_cycles.load(std::memory_order_relaxed) };
}

} // namespace mfusim
