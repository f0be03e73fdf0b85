/**
 * @file
 * Shared helpers for mfusim tests: terse construction of hand-built
 * dynamic traces for golden-timing tests, seeded random traces, one
 * SimResult comparator and a scoped steady-state switch.
 */

#ifndef MFUSIM_TESTS_TEST_UTIL_HH
#define MFUSIM_TESTS_TEST_UTIL_HH

#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mfusim/core/registers.hh"
#include "mfusim/core/trace.hh"
#include "mfusim/core/trace_io.hh"
#include "mfusim/sim/simulator.hh"
#include "mfusim/sim/steady_state.hh"

namespace mfusim
{
namespace test
{

/** Build a DynOp; branches default to taken = false. */
inline DynOp
dyn(Op op, RegId dst = kNoReg, RegId srcA = kNoReg, RegId srcB = kNoReg,
    bool taken = false)
{
    DynOp d;
    d.op = op;
    d.dst = dst;
    d.srcA = srcA;
    d.srcB = srcB;
    d.staticIdx = 0;
    d.taken = taken;
    return d;
}

/** Build a trace from a list of DynOps. */
inline DynTrace
traceOf(std::initializer_list<DynOp> ops, const char *name = "test")
{
    DynTrace trace(name);
    for (const DynOp &op : ops)
        trace.append(op);
    return trace;
}

/**
 * Expect @p got to equal @p want in every SimResult field, the whole
 * stall array included; @p what names the run in failure messages.
 */
inline void
expectSameResult(const SimResult &got, const SimResult &want,
                 const std::string &what)
{
    EXPECT_EQ(got.instructions, want.instructions) << what;
    EXPECT_EQ(got.cycles, want.cycles) << what;
    EXPECT_EQ(got.stalls, want.stalls) << what;
    EXPECT_EQ(got.hasStalls, want.hasStalls) << what;
    EXPECT_EQ(got.steadyOpsSkipped, want.steadyOpsSkipped) << what;
    EXPECT_EQ(got.squashes, want.squashes) << what;
    EXPECT_EQ(got.wrongPathOps, want.wrongPathOps) << what;
}

/** Set the steady-state fast path for one scope, then restore it. */
class SteadyGuard
{
  public:
    explicit SteadyGuard(bool on) : prev_(steadyStateEnabled())
    {
        setSteadyStateEnabled(on);
    }
    ~SteadyGuard() { setSteadyStateEnabled(prev_); }

  private:
    bool prev_;
};

/** One cell of the pinned legacy branch-policy fixture. */
struct PinnedCell
{
    std::string machine;    //!< e.g. "ooo:4,btfn"
    std::string config;     //!< e.g. "M11BR5"
    int loop = 0;
    std::uint64_t cycles = 0;
};

/**
 * golden/branch_alias_cycles.txt: cycles of the ",btfn" / ",oracle"
 * branch policies recorded before they became predictor aliases.
 */
inline std::vector<PinnedCell>
pinnedAliasCycles()
{
    std::ifstream in(std::string(MFUSIM_TEST_GOLDEN_DIR) +
                     "/branch_alias_cycles.txt");
    std::vector<PinnedCell> cells;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        PinnedCell cell;
        std::istringstream(line) >> cell.machine >> cell.config >>
            cell.loop >> cell.cycles;
        cells.push_back(cell);
    }
    return cells;
}

/**
 * The lines of golden/@p file, comments and blank lines dropped
 * (empty if the file is missing).
 */
inline std::vector<std::string>
goldenLines(const std::string &file)
{
    std::ifstream in(std::string(MFUSIM_TEST_GOLDEN_DIR) + "/" + file);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '#')
            lines.push_back(line);
    }
    return lines;
}

/**
 * One golden/trace_digests.txt line: @p spec, the op count and the
 * FNV-1a 64 digest of @p trace's saveTrace() text.
 */
inline std::string
traceDigestLine(const std::string &spec, const DynTrace &trace)
{
    std::ostringstream text;
    saveTrace(text, trace);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : text.str()) {
        hash ^= std::uint8_t(c);
        hash *= 0x100000001b3ull;
    }
    std::ostringstream line;
    line << spec << ' ' << trace.size() << ' ' << std::hex << hash;
    return line.str();
}

/** Small deterministic PRNG (xorshift64*). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : state_(seed | 1) {}

    std::uint64_t
    next()
    {
        state_ ^= state_ >> 12;
        state_ ^= state_ << 25;
        state_ ^= state_ >> 27;
        return state_ * 0x2545f4914f6cdd1dull;
    }

    /** Uniform in [0, bound). */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    bool
    chance(unsigned percent)
    {
        return below(100) < percent;
    }

  private:
    std::uint64_t state_;
};

/**
 * A random but *well-formed* trace: operand classes respect the
 * ISA, branches carry outcomes, and the stream is a plausible
 * single path (no wrong-path ops).
 */
inline DynTrace
randomTrace(std::uint64_t seed, std::size_t length)
{
    Rng rng(seed);
    DynTrace trace("fuzz" + std::to_string(seed));

    const auto rand_s = [&rng] { return regS(unsigned(rng.below(8))); };
    const auto rand_a = [&rng] { return regA(unsigned(rng.below(8))); };

    for (std::size_t i = 0; i < length; ++i) {
        DynOp op;
        const unsigned kind = unsigned(rng.below(100));
        if (kind < 25) {                        // memory
            if (rng.chance(70))
                op = { Op::kLoadS, rand_s(), rand_a(), kNoReg, 0,
                       false, false };
            else
                op = { Op::kStoreS, kNoReg, rand_a(), rand_s(), 0,
                       false, false };
        } else if (kind < 40) {                 // fp add path
            op = { rng.chance(50) ? Op::kFAdd : Op::kFSub, rand_s(),
                   rand_s(), rand_s(), 0, false, false };
        } else if (kind < 50) {                 // fp multiply
            op = { Op::kFMul, rand_s(), rand_s(), rand_s(), 0, false,
                   false };
        } else if (kind < 54) {                 // reciprocal
            op = { Op::kFRecip, rand_s(), rand_s(), kNoReg, 0, false,
                   false };
        } else if (kind < 70) {                 // address arithmetic
            op = { rng.chance(50) ? Op::kAAdd : Op::kASub, rand_a(),
                   rand_a(), rand_a(), 0, false, false };
        } else if (kind < 80) {                 // logical / shift
            op = { rng.chance(50) ? Op::kSAnd : Op::kSXor, rand_s(),
                   rand_s(), rand_s(), 0, false, false };
        } else if (kind < 90) {                 // transfers
            op = { rng.chance(50) ? Op::kSConst : Op::kSMovA,
                   rand_s(),
                   rng.chance(50) ? kNoReg : rand_a(), kNoReg, 0,
                   false, false };
            if (op.op == Op::kSConst)
                op.srcA = kNoReg;
        } else {                                // branch
            op = { Op::kBrANZ, kNoReg, A0, kNoReg,
                   StaticIndex(rng.below(64)), rng.chance(60),
                   rng.chance(70) };
        }
        trace.append(op);
    }
    return trace;
}

} // namespace test
} // namespace mfusim

#endif // MFUSIM_TESTS_TEST_UTIL_HH
