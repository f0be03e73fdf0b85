/**
 * @file
 * Seeded mutation test of the grammars that read integers: loop
 * specs, machine specs, predictor specs, MFUSIM_FAULTS, MFUSIM_JOBS,
 * trace-file count fields and HTTP request heads.
 *
 * Each grammar starts from valid inputs.  A fixed-seed generator
 * splices in boundary numbers (0, 65536, 65537, 2^32 +- 1, 2^64,
 * 2^64 + 3), signs, whitespace, leading zeros, trailing junk and the
 * grammar's own tokens, and duplicates, drops or swaps its fields.
 * Every mutant must do one of two things:
 *
 *  - parse, and then its canonical spelling (every digit run without
 *    leading zeros, but for a fraction's) parses to the same key:
 *    cacheKey(), loop name, predictor key, the armed fault points'
 *    firing schedules, worker count, trace ops or request body;
 *  - or throw the grammar's own typed error (ConfigError,
 *    TraceError; an HTTP head answers a status, never throws).
 *
 * Nothing else may escape, std::invalid_argument and
 * std::out_of_range in particular.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <exception>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "mfusim/core/error.hh"
#include "mfusim/core/faultpoint.hh"
#include "mfusim/core/lexical.hh"
#include "mfusim/core/trace_io.hh"
#include "mfusim/harness/spec_parse.hh"
#include "mfusim/harness/sweep.hh"
#include "mfusim/serve/http.hh"
#include "mfusim/spec/predictor.hh"

namespace mfusim
{
namespace
{

/** Mutants generated from each grammar's seed inputs. */
constexpr int kMutantsPerGrammar = 4000;

/** Deterministic generator: splitmix64 over a fixed seed. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    std::size_t below(std::size_t n) { return std::size_t(next() % n); }

    template <typename T>
    const T &
    pick(const std::vector<T> &items)
    {
        return items[below(items.size())];
    }

  private:
    std::uint64_t state_;
};

const std::vector<std::string> kBoundaryNumbers = {
    "0",          "1",          "65536",      "65537",
    "4294967295", "4294967296", "4294967297", "18446744073709551615",
    "18446744073709551616",     "18446744073709551619",
};

const std::vector<std::string> kNoise = {
    "+", "-", " ", "\t", "0", "00", "z", "x", "v", ":", ",", "=", "w",
    "s", ".", "1e3", "0x",
};

/** [begin, end) of every maximal digit run in @p text. */
std::vector<std::pair<std::size_t, std::size_t>>
digitRuns(const std::string &text)
{
    std::vector<std::pair<std::size_t, std::size_t>> runs;
    for (std::size_t i = 0; i < text.size();) {
        if (text[i] < '0' || text[i] > '9') {
            ++i;
            continue;
        }
        std::size_t end = i;
        while (end < text.size() && text[end] >= '0' && text[end] <= '9')
            ++end;
        runs.emplace_back(i, end);
        i = end;
    }
    return runs;
}

/**
 * @p text with every digit run's leading zeros dropped ("007" -> "7"),
 * but for a run after a '.', whose zeros count ("0.05" is not "0.5").
 */
std::string
canonical(const std::string &text)
{
    std::string out;
    std::size_t from = 0;
    for (const auto &[begin, end] : digitRuns(text)) {
        out += text.substr(from, begin - from);
        std::size_t first = begin;
        while (first + 1 < end && text[first] == '0' &&
               (begin == 0 || text[begin - 1] != '.'))
            ++first;
        out += text.substr(first, end - first);
        from = end;
    }
    return out + text.substr(from);
}

std::string
joined(const std::vector<std::string> &parts, char sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i)
        out += (i == 0 ? "" : std::string(1, sep)) + parts[i];
    return out;
}

/** One random edit of @p text; @p seps are the grammar's separators. */
std::string
mutateOnce(Rng &rng, std::string text, const std::string &seps)
{
    const auto runs = digitRuns(text);
    switch (rng.below(7)) {
      case 0:   // a boundary number in place of a digit run
        if (!runs.empty()) {
            const auto [begin, end] = rng.pick(runs);
            return text.replace(begin, end - begin,
                                rng.pick(kBoundaryNumbers));
        }
        [[fallthrough]];
      case 1:   // leading zeros or a sign before a digit run
        if (!runs.empty()) {
            static const std::vector<std::string> prefixes = {
                "0", "00", "000", "+", "-", " ",
            };
            return text.insert(rng.pick(runs).first,
                               rng.pick(prefixes));
        }
        [[fallthrough]];
      case 2:   // noise anywhere
        return text.insert(rng.below(text.size() + 1), rng.pick(kNoise));
      case 3:   // trailing junk
        return text + rng.pick(kNoise);
      case 4:   // drop one character
        if (!text.empty())
            text.erase(rng.below(text.size()), 1);
        return text;
      default: {    // duplicate, drop or swap a field
        const char sep = seps[rng.below(seps.size())];
        std::vector<std::string> parts = splitFields(text, sep);
        const std::size_t i = rng.below(parts.size());
        const std::size_t j = rng.below(parts.size());
        switch (rng.below(3)) {
          case 0:
            parts.insert(parts.begin() + std::ptrdiff_t(j), parts[i]);
            break;
          case 1:
            if (parts.size() > 1)
                parts.erase(parts.begin() + std::ptrdiff_t(i));
            break;
          default:
            std::swap(parts[i], parts[j]);
            break;
        }
        return joined(parts, sep);
      }
    }
}

/** One to three random edits of a random seed input. */
std::string
mutant(Rng &rng, const std::vector<std::string> &seeds,
       const std::string &seps)
{
    std::string text = rng.pick(seeds);
    const std::size_t edits = 1 + rng.below(3);
    for (std::size_t i = 0; i < edits; ++i)
        text = mutateOnce(rng, text, seps);
    return text;
}

/**
 * Run @p read on @p input.  The key it returns if it parses, or
 * nullopt if it threw a @p Typed error; any other exception fails
 * the test.
 */
template <typename Typed, typename Read>
std::optional<std::string>
keyOf(const Read &read, const std::string &input)
{
    try {
        return read(input);
    } catch (const Typed &) {
        return std::nullopt;
    } catch (const std::exception &e) {
        ADD_FAILURE() << "'" << input << "' threw untyped: " << e.what();
    }
    return std::nullopt;
}

/**
 * Every mutant of @p seeds either parses, with its canonical
 * spelling parsing to the same key, or throws @p Typed.
 */
template <typename Typed, typename Read>
void
checkGrammar(std::uint64_t seed, const std::vector<std::string> &seeds,
             const std::string &seps, const Read &read)
{
    for (const std::string &valid : seeds)
        ASSERT_TRUE(keyOf<Typed>(read, valid)) << valid;
    Rng rng(seed);
    std::size_t parsed = 0;
    for (int n = 0; n < kMutantsPerGrammar; ++n) {
        const std::string input = mutant(rng, seeds, seps);
        const std::optional<std::string> key = keyOf<Typed>(read, input);
        if (!key)
            continue;
        ++parsed;
        EXPECT_EQ(keyOf<Typed>(read, canonical(input)), key)
            << "'" << input << "' vs '" << canonical(input) << "'";
    }
    // The mutants reach both outcomes, or the test shows nothing.
    EXPECT_GT(parsed, 0u);
    EXPECT_LT(parsed, std::size_t(kMutantsPerGrammar));
}

TEST(GrammarMutation, LoopSpecs)
{
    checkGrammar<ConfigError>(
        1, { "5", "14", "1x4", "12x8", "7v", "12v" }, "x",
        [](const std::string &text) {
            const std::string name = parseLoopSpec(text).name;
            // The canonical name is a fixed point.
            EXPECT_EQ(parseLoopSpec(name).name, name) << text;
            return name;
        });
}

TEST(GrammarMutation, MachineSpecs)
{
    checkGrammar<ConfigError>(
        2,
        { "cray", "seq:4", "ooo:8,xbar", "ruu:4:50,1bus,oracle",
          "tomasulo:3:1", "cdc,xbar", "ruu:2:30,pred=2bit:512:w8",
          "ooo:4,pred=fixed:90:s7", "seq:2,btfn" },
        ",:",
        [](const std::string &text) {
            return parseMachineSpec(text, configM11BR5())->cacheKey();
        });
}

TEST(GrammarMutation, PredictorSpecs)
{
    checkGrammar<ConfigError>(
        3,
        { "perfect", "btfn:w0", "2bit", "2bit:512:w8", "fixed:90",
          "fixed:75:s3:w16", "taken:w4" },
        ":",
        [](const std::string &text) {
            const std::string key = PredictorSpec::parse(text).key();
            EXPECT_EQ(PredictorSpec::parse(key).key(), key) << text;
            return key;
        });
}

TEST(GrammarMutation, FaultSpecs)
{
    struct Disarm
    {
        ~Disarm() { FaultRegistry::instance().reset(); }
    } disarm;
    checkGrammar<ConfigError>(
        4,
        { "worker.die:every=7", "persist.write:after=10:every=3:times=2",
          "seed=42,http.read:short:prob=0.5", "worker.overrun:once",
          "http.write:prob=0.05:after=3" },
        ",:",
        [](const std::string &text) {
            // The key is each armed point's firing schedule over 64
            // evaluations, which every count, the seed and the
            // probability shape; a mode is a free word and is left out.
            FaultRegistry &registry = FaultRegistry::instance();
            registry.configure(text);
            std::string key;
            for (const FaultPointStats &s : registry.stats()) {
                key += s.point + ":";
                for (int i = 0; i < 64; ++i)
                    key += registry.shouldFire(s.point) ? '1' : '0';
                key += ";";
            }
            return key;
        });
}

TEST(GrammarMutation, JobsEnvironment)
{
    struct Restore
    {
        const char *saved = std::getenv("MFUSIM_JOBS");
        std::string value = saved != nullptr ? saved : "";
        ~Restore()
        {
            if (saved != nullptr)
                setenv("MFUSIM_JOBS", value.c_str(), 1);
            else
                unsetenv("MFUSIM_JOBS");
        }
    } restore;
    setDefaultSweepJobs(0);
    checkGrammar<ConfigError>(5, { "0", "4", "12" }, " ",
                              [](const std::string &text) {
                                  setenv("MFUSIM_JOBS", text.c_str(), 1);
                                  return std::to_string(
                                      defaultSweepJobs());
                              });
}

/** The saved text of @p trace without its name line. */
std::string
opsText(const DynTrace &trace)
{
    std::ostringstream os;
    saveTrace(os, trace);
    std::string text = os.str();
    const std::size_t name = text.find('\n') + 1;
    return text.erase(name, text.find('\n', name) + 1 - name);
}

TEST(GrammarMutation, TraceFileCounts)
{
    // A few ops of the vector loop: counts, register indexes, static
    // indexes and vector lengths, and one branch.
    const DynTrace full = traceForLoopSpec(parseLoopSpec("7v"));
    DynTrace small("LL7v");
    bool branch = false;
    for (const DynOp &op : full.ops()) {
        if (small.size() < 6 || (!branch && isBranch(op.op))) {
            branch = branch || isBranch(op.op);
            small.append(op);
        }
        if (small.size() >= 6 && branch)
            break;
    }
    std::ostringstream os;
    saveTrace(os, small);
    checkGrammar<TraceError>(6, { os.str() }, "\n ",
                             [](const std::string &text) {
                                 std::istringstream is(text);
                                 return opsText(loadTrace(is));
                             });
}

TEST(GrammarMutation, HttpRequestHeads)
{
    // Mutate the head only; the body follows it unchanged.
    const std::string body = "hello";
    const auto read = [&](const std::string &head) -> std::string {
        const std::string wire = head + "\r\n\r\n" + body;
        HttpRequest req;
        std::size_t consumed = 0;
        std::string error;
        const ExtractStatus status =
            extractRequest(wire, 0, 1024, &req, &consumed, &error);
        if (status != ExtractStatus::kOk)
            throw ServeError(400, error);
        return req.body;
    };
    checkGrammar<ServeError>(
        7,
        { "POST /v1/simulate HTTP/1.1\r\nHost: x\r\nContent-Length: 5",
          "POST /v1/sweep HTTP/1.1\r\nContent-Length: 3\r\n"
          "X-Deadline-Ms: 250",
          "GET /v1/trace?last=10 HTTP/1.1\r\nContent-Length: 0" },
        "\n: ", read);
}

} // namespace
} // namespace mfusim
