/**
 * @file
 * Shared helpers for mfusim tests: terse construction of hand-built
 * dynamic traces for golden-timing tests.
 */

#ifndef MFUSIM_TESTS_TEST_UTIL_HH
#define MFUSIM_TESTS_TEST_UTIL_HH

#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "mfusim/core/trace.hh"
#include "mfusim/core/trace_io.hh"

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

} // namespace test
} // namespace mfusim

#endif // MFUSIM_TESTS_TEST_UTIL_HH
