/**
 * @file
 * Dynamic instruction traces.
 *
 * All of the paper's simulations are trace driven: "Instruction traces
 * were generated for each of the benchmark programs and then used to
 * drive the simulations."  A DynTrace is the executed instruction
 * stream of one benchmark run, in execution order, with branch
 * outcomes recorded.  Timing simulators and the dataflow analyzers
 * consume DynTraces; the functional Interpreter produces them.
 */

#ifndef MFUSIM_CORE_TRACE_HH
#define MFUSIM_CORE_TRACE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mfusim/core/opcode.hh"
#include "mfusim/core/registers.hh"
#include "mfusim/core/types.hh"

namespace mfusim
{

/**
 * One executed instruction in a dynamic trace.
 *
 * Operand fields follow the conventions of Instruction; the
 * displacement / immediate is dropped because it never affects
 * timing.  For branches, `taken` records the resolved outcome so
 * instruction-buffer models know whether the instructions that follow
 * the branch in the trace are its fall-through path or its target.
 */
struct DynOp
{
    Op op = Op::kHalt;
    RegId dst = kNoReg;
    RegId srcA = kNoReg;
    RegId srcB = kNoReg;
    StaticIndex staticIdx = 0;  //!< index of the static instruction
    bool taken = false;         //!< branch outcome (branches only)
    bool backward = false;      //!< branch target precedes the branch
    /** Vector length at execution (vector ops only; 0 = scalar). */
    std::uint8_t vl = 0;

    /** The static backward-taken/forward-not-taken predictor gets
     *  this branch right. */
    bool btfnCorrect() const { return backward == taken; }
};

/**
 * Cycles an instruction holds its (pipelined) execution resource:
 * one per element for vector compute/memory ops, otherwise 1.
 * kVSetLen records the new VL in its vl field but is an ordinary
 * 1-cycle transfer.
 */
inline unsigned
vectorOccupancy(const DynOp &op)
{
    if (!isVector(op.op) || op.op == Op::kVSetLen)
        return 1;
    return op.vl > 0 ? op.vl : 1;
}

/** Aggregate composition statistics of a trace. */
struct TraceStats
{
    std::uint64_t totalOps = 0;
    std::uint64_t branches = 0;
    std::uint64_t takenBranches = 0;
    /** Branches a static backward-taken predictor gets right. */
    std::uint64_t btfnCorrectBranches = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t parcels = 0;
    std::uint64_t vectorOps = 0;        //!< vector-unit instructions
    std::uint64_t vectorElements = 0;   //!< total elements processed
    /** Dynamic op count per functional-unit class. */
    std::array<std::uint64_t, kNumFuClasses> perFu{};
    /** Vector elements streamed through each unit class. */
    std::array<std::uint64_t, kNumFuClasses> vectorElementsPerFu{};
    /** Vector instructions per unit class. */
    std::array<std::uint64_t, kNumFuClasses> vectorOpsPerFu{};

    /** Fraction of dynamic instructions that reference memory. */
    double
    memoryFraction() const
    {
        return totalOps == 0 ?
            0.0 : double(loads + stores) / double(totalOps);
    }

    /** Accuracy of the static backward-taken/forward-not-taken
     *  predictor on this trace. */
    double
    btfnAccuracy() const
    {
        return branches == 0 ?
            0.0 : double(btfnCorrectBranches) / double(branches);
    }
};

/**
 * A dynamic instruction trace: the executed instruction stream of one
 * benchmark, plus identification metadata.
 */
class DynTrace
{
  public:
    DynTrace() = default;
    explicit DynTrace(std::string name) : name_(std::move(name)) {}

    /** Append one executed instruction. */
    void
    append(const DynOp &op)
    {
        ops_.push_back(op);
    }

    void
    reserve(std::size_t n)
    {
        ops_.reserve(n);
    }

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    std::size_t size() const { return ops_.size(); }
    bool empty() const { return ops_.empty(); }

    const DynOp &operator[](DynIndex i) const { return ops_[i]; }

    const std::vector<DynOp> &ops() const { return ops_; }

    /** Compute composition statistics over the whole trace. */
    TraceStats stats() const;

  private:
    std::string name_;
    std::vector<DynOp> ops_;
};

} // namespace mfusim

#endif // MFUSIM_CORE_TRACE_HH
