/**
 * @file
 * Trace serialization implementation.
 *
 * loadTrace() treats its input as hostile: every numeric field is
 * read by parseDecimal() against its own bound (digits only, never
 * wrapped, so no out-of-range value corrupts the trace), the header
 * op count is bounded before any allocation, and every failure path
 * throws TraceError.
 */

#include "mfusim/core/trace_io.hh"

#include <cstdint>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <unordered_map>

#include "mfusim/core/error.hh"
#include "mfusim/core/lexical.hh"
#include "mfusim/core/registers.hh"

namespace mfusim
{

namespace
{

/**
 * Refuse header op counts above this before reserving memory: a
 * corrupted count must not turn into a multi-gigabyte allocation.
 * The real Livermore traces are ~10^3..10^5 ops.
 */
constexpr std::uint64_t kMaxTraceOps = std::uint64_t(1) << 28;

std::string
fmtReg(RegId r)
{
    return regName(r);
}

/** @p text as a count up to @p max, else a TraceError naming it. */
std::uint64_t
parseCount(const std::string &text, std::uint64_t max,
           const char *what)
{
    if (const auto value = parseDecimal(text, max))
        return *value;
    throw TraceError(std::string("bad ") + what + " '" + text +
                     "' (want decimal digits, at most " +
                     std::to_string(max) + ")");
}

RegId
parseReg(const std::string &text)
{
    if (text == "--")
        return kNoReg;
    if (text == "VL")
        return kVlReg;
    if (text.size() < 2)
        throw TraceError("bad register '" + text + "'");
    const unsigned index = unsigned(
        parseCount(text.substr(1), kNumRegs, "register index"));
    switch (text[0]) {
      case 'A':
        if (index < kNumARegs)
            return regA(index);
        break;
      case 'S':
        if (index < kNumSRegs)
            return regS(index);
        break;
      case 'B':
        if (index < kNumBRegs)
            return regB(index);
        break;
      case 'T':
        if (index < kNumTRegs)
            return regT(index);
        break;
      case 'V':
        if (index < kNumVRegs)
            return regV(index);
        break;
      default:
        break;
    }
    throw TraceError("bad register '" + text + "'");
}

Op
parseOp(const std::string &mnemonic)
{
    static const std::unordered_map<std::string, Op> table = [] {
        std::unordered_map<std::string, Op> map;
        for (unsigned i = 0; i < kNumOps; ++i) {
            const Op op = static_cast<Op>(i);
            map.emplace(mnemonicOf(op), op);
        }
        return map;
    }();
    const auto it = table.find(mnemonic);
    if (it == table.end())
        throw TraceError("unknown mnemonic '" + mnemonic + "'");
    return it->second;
}

} // namespace

void
saveTrace(std::ostream &os, const DynTrace &trace)
{
    os << "mfusim-trace v1\n";
    os << "name " << trace.name() << '\n';
    os << "ops " << trace.size() << '\n';
    for (const DynOp &op : trace.ops()) {
        os << mnemonicOf(op.op) << ' ' << fmtReg(op.dst) << ' '
           << fmtReg(op.srcA) << ' ' << fmtReg(op.srcB) << ' '
           << op.staticIdx << ' ';
        if (isBranch(op.op)) {
            os << (op.taken ? 'T' : 'N') << ' '
               << (op.backward ? 'B' : 'F');
        } else {
            os << "- -";
        }
        os << ' ' << unsigned(op.vl) << '\n';
    }
}

DynTrace
loadTrace(std::istream &is)
{
    std::string line;
    if (!std::getline(is, line) || line != "mfusim-trace v1")
        throw TraceError("bad header");

    if (!std::getline(is, line) || line.rfind("name ", 0) != 0)
        throw TraceError("missing name line");
    DynTrace trace(line.substr(5));

    if (!std::getline(is, line) || line.rfind("ops ", 0) != 0)
        throw TraceError("missing ops line");
    const std::uint64_t expected =
        parseCount(line.substr(4), kMaxTraceOps, "op count");
    trace.reserve(expected);

    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        if (trace.size() == expected) {
            throw TraceError(
                "more ops than the header's count of " +
                std::to_string(expected) + " (first excess line: '" +
                line + "')");
        }
        std::istringstream fields(line);
        std::string mnemonic, dst, src_a, src_b, static_idx, taken,
            backward;
        if (!(fields >> mnemonic >> dst >> src_a >> src_b >>
              static_idx >> taken >> backward)) {
            throw TraceError("malformed line '" + line + "'");
        }
        std::string vl_field;
        fields >> vl_field;     // optional (absent pre-vector)
        DynOp op;
        op.op = parseOp(mnemonic);
        op.dst = parseReg(dst);
        op.srcA = parseReg(src_a);
        op.srcB = parseReg(src_b);
        op.staticIdx = StaticIndex(parseCount(
            static_idx, std::uint32_t(-1), "static index"));
        if (isBranch(op.op)) {
            if ((taken != "T" && taken != "N") ||
                (backward != "B" && backward != "F")) {
                throw TraceError(
                    "branch op needs T|N and B|F outcome fields,"
                    " got '" + taken + " " + backward + "' in '" +
                    line + "'");
            }
        } else if (taken != "-" || backward != "-") {
            throw TraceError(
                "non-branch op must use '- -' outcome fields,"
                " got '" + taken + " " + backward + "' in '" + line +
                "'");
        }
        op.taken = taken == "T";
        op.backward = backward == "B";
        op.vl = vl_field.empty()
                    ? std::uint8_t(0)
                    : std::uint8_t(
                          parseCount(vl_field, 255, "vector length"));
        trace.append(op);
    }

    if (trace.size() != expected) {
        throw TraceError(
            "op count mismatch (header says " +
            std::to_string(expected) + ", file has " +
            std::to_string(trace.size()) + ")");
    }
    return trace;
}

} // namespace mfusim
