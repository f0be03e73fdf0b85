/**
 * @file
 * Seeded mutation test of the grammars that read integers: loop
 * specs, machine specs, predictor specs, MFUSIM_FAULTS, MFUSIM_JOBS,
 * trace-file count fields, HTTP request heads, /v1/simulate and
 * /v1/sweep JSON bodies, and persistent-journal records.
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
 * std::out_of_range in particular.  A JSON body answers 200 with the
 * cells of its canonical spelling, or 400, never a 5xx.  A damaged
 * journal adopts exactly its intact prefix of records.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <unistd.h>

#include "mfusim/core/error.hh"
#include "mfusim/core/faultpoint.hh"
#include "mfusim/core/lexical.hh"
#include "mfusim/core/trace_io.hh"
#include "mfusim/harness/spec_parse.hh"
#include "mfusim/harness/sweep.hh"
#include "mfusim/serve/http.hh"
#include "mfusim/serve/persist_cache.hh"
#include "mfusim/serve/result_cache.hh"
#include "mfusim/serve/sim_service.hh"
#include "mfusim/spec/predictor.hh"
#include "test_util.hh"

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

/** One member of a flat JSON object body: its key and value text. */
using Member = std::pair<std::string, std::string>;

std::string
renderBody(const std::vector<Member> &members)
{
    std::string out = "{";
    for (std::size_t i = 0; i < members.size(); ++i) {
        if (i > 0)
            out += ",";
        out += "\"" + members[i].first + "\":" + members[i].second;
    }
    return out + "}";
}

/** @p digits spelled another way: zeros, quotes, a sign, a fraction. */
std::string
respelled(Rng &rng, const std::string &digits)
{
    switch (rng.below(8)) {
      case 0: return "0" + digits;
      case 1: return "00" + digits;
      case 2: return "\"" + digits + "\"";
      case 3: return "\"0" + digits + "\"";
      case 4: return digits + ".0";
      case 5: return digits + "e0";
      case 6: return "-" + digits;
      default: return rng.pick(kBoundaryNumbers);
    }
}

/**
 * One mutant of a request body: one to three member edits (reorder,
 * duplicate or drop a member, respell a number of "loop", "loops" or
 * "jobs"), then perhaps whitespace or junk anywhere in the text.
 */
std::string
mutateBody(Rng &rng, std::vector<Member> members)
{
    const std::size_t edits = 1 + rng.below(3);
    for (std::size_t e = 0; e < edits && !members.empty(); ++e) {
        const std::size_t i = rng.below(members.size());
        const std::size_t j = rng.below(members.size());
        switch (rng.below(4)) {
          case 0:
            std::swap(members[i], members[j]);
            break;
          case 1:
            members.insert(members.begin() + std::ptrdiff_t(j),
                           members[i]);
            break;
          case 2:
            members.erase(members.begin() + std::ptrdiff_t(i));
            break;
          default: {
            Member &m = members[i];
            const auto runs = digitRuns(m.second);
            if ((m.first == "loop" || m.first == "loops" ||
                 m.first == "jobs") &&
                !runs.empty()) {
                const auto [begin, end] = rng.pick(runs);
                m.second.replace(
                    begin, end - begin,
                    respelled(rng, m.second.substr(begin, end - begin)));
            }
            break;
          }
        }
    }
    std::string text = renderBody(members);
    static const std::vector<std::string> whitespace = {
        " ", "\t", "\n", "\r\n", "   ",
    };
    static const std::vector<std::string> junk = {
        "x", ",", "}", "{", "\"", ":", "[", "]", "0", "-", "\\",
        "null", "tru", "\x01",
    };
    switch (rng.below(3)) {
      case 0:
        text.insert(rng.below(text.size() + 1), rng.pick(whitespace));
        break;
      case 1:
        text.insert(rng.below(text.size() + 1), rng.pick(junk));
        break;
      default:
        break;
    }
    return text;
}

/** A response body without its spelling echo and its cache flag. */
std::string
cellsOf(const std::string &response)
{
    const auto at = [&](std::size_t i, std::string_view text) {
        return response.compare(i, text.size(), text) == 0;
    };
    std::string out;
    for (std::size_t i = 0; i < response.size();) {
        std::size_t skip = i;
        if (at(i, "\"machine_spec\":\"")) {
            // Past the string value, escapes included.
            skip = i + 16;
            while (skip < response.size() && response[skip] != '"')
                skip += response[skip] == '\\' ? 2 : 1;
            ++skip;
        } else if (at(i, "\"cached\":true")) {
            skip = i + 13;
        } else if (at(i, "\"cached\":false")) {
            skip = i + 14;
        }
        if (skip == i) {
            out += response[i++];
            continue;
        }
        i = skip < response.size() && response[skip] == ',' ? skip + 1
                                                              : skip;
    }
    return out;
}

TEST(GrammarMutation, ServeJsonBodies)
{
    // Every mutant answers 200 or 400.  A 200 must name the cells of
    // its canonical spelling: the canonical body answers 200 with
    // the same cells and rates and simulates nothing new, and the
    // reactor fast path, where it answers, answers the same bytes.
    struct Scrub
    {
        Scrub() { ResultCache::instance().clear(); }
        ~Scrub() { ResultCache::instance().clear(); }
    } scrub;
    SimService service;
    const auto post = [&](const std::string &path,
                          const std::string &body) {
        HttpRequest request;
        request.method = "POST";
        request.target = request.path = path;
        request.body = body;
        return request;
    };
    const std::vector<std::pair<std::string, std::vector<Member>>> seeds = {
        { "/v1/simulate",
          { { "loop", "3" }, { "machine", "\"cray\"" },
            { "config", "\"M5BR2\"" } } },
        { "/v1/simulate",
          { { "loop", "\"1x4\"" }, { "machine", "\"ruu:4:50,1bus\"" } } },
        { "/v1/simulate",
          { { "loop", "12" }, { "machine", "\"ooo:4\"" },
            { "predictor", "\"2bit\"" }, { "audit", "true" } } },
        { "/v1/sweep",
          { { "machine", "[\"cray\",\"seq:2\"]" },
            { "config", "\"M11BR2\"" }, { "loops", "[1,5,12]" },
            { "jobs", "2" } } },
        { "/v1/sweep",
          { { "machine", "\"ruu:2:20\"" }, { "loops", "[3,\"7\"]" },
            { "jobs", "1" } } },
    };
    for (const auto &[path, members] : seeds) {
        const HttpResponse response =
            service.handle(post(path, renderBody(members)), 10000);
        ASSERT_EQ(response.status, 200) << renderBody(members);
    }

    Rng rng(8);
    std::size_t ok = 0;
    for (int n = 0; n < kMutantsPerGrammar; ++n) {
        const auto &[path, members] = rng.pick(seeds);
        const std::string body = mutateBody(rng, members);
        const HttpResponse response = service.handle(post(path, body), 10000);
        ASSERT_TRUE(response.status == 200 || response.status == 400)
            << path << " " << body << " -> " << response.status << " "
            << response.body;
        if (response.status != 200)
            continue;
        ++ok;
        const std::uint64_t misses = ResultCache::instance().stats().misses;
        const HttpResponse canon =
            service.handle(post(path, canonical(body)), 10000);
        ASSERT_EQ(canon.status, 200) << body << " vs " << canonical(body);
        EXPECT_EQ(cellsOf(canon.body), cellsOf(response.body))
            << body << " vs " << canonical(body);
        EXPECT_EQ(ResultCache::instance().stats().misses, misses)
            << "'" << canonical(body) << "' keys a cell that '" << body
            << "' did not";
        HttpResponse fast;
        if (service.tryFastAnswer(post(path, body), &fast)) {
            const HttpResponse worker =
                service.handle(post(path, body), 10000);
            EXPECT_EQ(fast.status, worker.status) << body;
            EXPECT_EQ(fast.body, worker.body) << body;
        }
    }
    EXPECT_GT(ok, 0u);
    EXPECT_LT(ok, std::size_t(kMutantsPerGrammar));
}

/** A fresh temporary directory, removed with its journal files. */
class TempDir
{
  public:
    TempDir()
    {
        char pattern[] = "/tmp/mfusim_journal_XXXXXX";
        if (::mkdtemp(pattern) != nullptr)
            path_ = pattern;
    }
    ~TempDir()
    {
        std::remove((path_ + "/results.mfuj").c_str());
        std::remove((path_ + "/results.mfuj.tmp").c_str());
        ::rmdir(path_.c_str());
    }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return { std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>() };
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

std::uint32_t
u32At(const std::string &bytes, std::size_t at)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | std::uint8_t(bytes[at + std::size_t(i)]);
    return v;
}

void
putU32At(std::string &bytes, std::size_t at, std::uint32_t v)
{
    for (std::size_t i = 0; i < 4; ++i)
        bytes[at + i] = char((v >> (8 * i)) & 0xff);
}

TEST(GrammarMutation, JournalRecords)
{
    // A valid journal of twelve records, damaged by one to three
    // edits: a record's magic, a length past the end (or past the
    // framing bound), a payload or CRC byte, a header byte, a cut
    // tail, or junk appended.  open() must adopt exactly the records
    // before the first damaged one, each equal to what was written,
    // cut the file back to them, and never crash; a damaged header
    // wipes the file.
    const TempDir dir;
    ASSERT_FALSE(dir.path().empty());
    const std::string path = dir.path() + "/results.mfuj";
    const std::string version = "mutation-build";
    std::vector<std::pair<std::string, SimResult>> written;
    {
        PersistentCache journal(dir.path());
        journal.open(version, [](std::string, const SimResult &) {});
        for (std::uint64_t i = 0; i < 12; ++i) {
            SimResult r;
            r.instructions = 1000 + i;
            r.cycles = 7 * i + 3;
            r.stalls[i % kNumStallCauses] = i + 1;
            r.hasStalls = i % 2 == 0;
            r.squashes = i;
            written.emplace_back("ruu|w=" + std::to_string(i) +
                                     "\nLL" + std::to_string(1 + i) +
                                     "\nM11BR5\nplain\nsteady\n" +
                                     version,
                                 r);
            ASSERT_TRUE(journal.append(written.back().first, r));
        }
    }
    const std::string pristine = readFile(path);
    const std::size_t headerBytes = 16 + version.size();
    std::vector<std::size_t> ends;     // end offset of each record
    for (std::size_t at = headerBytes; at < pristine.size();) {
        at += 12 + u32At(pristine, at + 4);
        ends.push_back(at);
    }
    ASSERT_EQ(ends.size(), written.size());
    ASSERT_EQ(ends.back(), pristine.size());
    const auto recordStart = [&](std::size_t r) {
        return r == 0 ? headerBytes : ends[r - 1];
    };

    // A quarter of the usual budget: each mutant is a file rewritten,
    // opened and synced.
    Rng rng(9);
    std::size_t wiped = 0, partial = 0;
    for (int n = 0; n < kMutantsPerGrammar / 4; ++n) {
        std::string bytes = pristine;
        const std::size_t edits = 1 + rng.below(3);
        for (std::size_t e = 0; e < edits; ++e) {
            const std::size_t r = rng.below(written.size());
            const std::size_t at = recordStart(r);
            switch (rng.below(7)) {
              case 0:   // bad record magic
                if (at < bytes.size())
                    bytes[at] = char(bytes[at] ^ 0x20);
                break;
              case 1:   // a length past the end of the file
                if (at + 8 <= bytes.size())
                    putU32At(bytes, at + 4,
                             std::uint32_t(bytes.size() - at) +
                                 std::uint32_t(rng.below(64)));
                break;
              case 2:   // a length past the framing bound
                if (at + 8 <= bytes.size())
                    putU32At(bytes, at + 4,
                             0xffffffffu - std::uint32_t(rng.below(4)));
                break;
              case 3: { // a CRC or payload byte: a checksum mismatch
                const std::size_t span = ends[r] - at - 8;
                const std::size_t i = at + 8 + rng.below(span);
                if (i < bytes.size())
                    bytes[i] = char(bytes[i] ^ (1 + rng.below(255)));
                break;
              }
              case 4: { // an altered header byte
                const std::size_t i = rng.below(headerBytes);
                if (i < bytes.size())
                    bytes[i] = char(bytes[i] ^ (1 + rng.below(255)));
                break;
              }
              case 5:   // a cut tail
                bytes.resize(rng.below(bytes.size() + 1));
                break;
              default:  // junk appended
                bytes += std::string(1 + rng.below(20),
                                     char(rng.below(256)));
                break;
            }
        }
        writeFile(path, bytes);

        // What open() must do: wipe a file whose header differs, or
        // adopt the records whose bytes are all intact.
        const bool headerIntact =
            bytes.size() >= headerBytes &&
            bytes.compare(0, headerBytes, pristine, 0, headerBytes) == 0;
        std::size_t intact = 0;
        while (headerIntact && intact < ends.size() &&
               ends[intact] <= bytes.size() &&
               bytes.compare(recordStart(intact),
                             ends[intact] - recordStart(intact), pristine,
                             recordStart(intact),
                             ends[intact] - recordStart(intact)) == 0)
            ++intact;

        std::vector<std::pair<std::string, SimResult>> adopted;
        PersistLoadStats load;
        {
            PersistentCache journal(dir.path());
            load = journal.open(version,
                                [&](std::string key, const SimResult &r) {
                                    adopted.emplace_back(std::move(key), r);
                                });
        }
        ASSERT_FALSE(load.loadFailed);
        ASSERT_EQ(adopted.size(), intact) << "mutant " << n;
        for (std::size_t i = 0; i < intact; ++i) {
            EXPECT_EQ(adopted[i].first, written[i].first);
            test::expectSameResult(adopted[i].second, written[i].second,
                                   adopted[i].first);
        }
        const std::size_t kept =
            headerIntact ? recordStart(intact) : headerBytes;
        EXPECT_EQ(readFile(path), pristine.substr(0, kept))
            << "mutant " << n;
        if (!headerIntact && !bytes.empty()) {
            EXPECT_EQ(load.discardedVersion, 1u) << "mutant " << n;
            ++wiped;
        } else if (intact < written.size()) {
            ++partial;
        }
    }
    // The mutants reach a wiped header and a cut record list.
    EXPECT_GT(wiped, 0u);
    EXPECT_GT(partial, 0u);
}

} // namespace
} // namespace mfusim
