/**
 * @file
 * Dynamic instruction traces.
 *
 * All of the paper's simulations are trace driven: "Instruction traces
 * were generated for each of the benchmark programs and then used to
 * drive the simulations."  A DynTrace is the executed instruction
 * stream of one benchmark run, in execution order, with branch
 * outcomes recorded.
 *
 * The functional Interpreter records a run as an ExecLog: 4 bytes
 * per executed instruction, holding only what the static program
 * cannot say.  The log plus its program is the whole trace.  The
 * simulation path decodes a TraceBody straight from the two (see
 * decoded_trace.hh); a DynTrace, 16 bytes per op, is expanded from
 * them only for callers that need raw ops: saving a trace, the
 * dataflow analyzers, tests.  Replayed (loadTrace) and synthetic
 * traces are DynTraces from the start.
 */

#ifndef MFUSIM_CORE_TRACE_HH
#define MFUSIM_CORE_TRACE_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mfusim/core/instruction.hh"
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
 * The execution log of one program run: per executed instruction,
 * its static index, its branch outcome and its vector length, packed
 * into 4 bytes.  Opcode, registers and branch direction are the
 * static instruction's, so op() rebuilds the full DynOp from the
 * program that produced the log.
 *
 * Entries live in fixed chunks of kChunkOps (16 KiB), not in one
 * growing buffer, so building and freeing a log of up to 16M ops
 * frees no block of 128 KiB or more, glibc's default mmap threshold
 * (trace_library.hh says why that matters).
 */
class ExecLog
{
  public:
    /** Largest static index an entry can hold (24 bits). */
    static constexpr StaticIndex kMaxStaticIdx = (1u << 24) - 1;

    /** Record one executed instruction; @p vl is 0 for scalar ops. */
    void
    append(StaticIndex staticIdx, bool taken, std::uint8_t vl)
    {
        const std::size_t slot = size_ % kChunkOps;
        if (slot == 0) {
            chunks_.push_back(
                std::make_unique_for_overwrite<std::uint32_t[]>(
                    kChunkOps));
        }
        assert(staticIdx <= kMaxStaticIdx && vl <= kVlMask);
        chunks_.back()[slot] = staticIdx |
            std::uint32_t(vl) << kVlShift | (taken ? kTakenBit : 0);
        ++size_;
    }

    std::size_t size() const { return size_; }

    /** Executed instruction @p i in full; @p code is the program the
     *  log was recorded from. */
    DynOp
    op(std::span<const Instruction> code, std::size_t i) const
    {
        const std::uint32_t e = chunks_[i / kChunkOps][i % kChunkOps];
        const StaticIndex pc = e & kMaxStaticIdx;
        const Instruction &inst = code[pc];
        DynOp dyn{ inst.op, inst.dst, inst.srcA, inst.srcB, pc,
                   (e & kTakenBit) != 0, false,
                   std::uint8_t(e >> kVlShift & kVlMask) };
        if (isBranch(inst.op))
            dyn.backward = inst.target() <= pc;
        return dyn;
    }

  private:
    static constexpr std::size_t kChunkOps = 4096;
    static constexpr unsigned kVlShift = 24;
    static constexpr std::uint32_t kVlMask = 0x7f;
    static constexpr std::uint32_t kTakenBit = 1u << 31;

    std::vector<std::unique_ptr<std::uint32_t[]>> chunks_;
    std::size_t size_ = 0;
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

    /** Expand @p log, recorded from @p code, into exactly
     *  log.size() ops. */
    DynTrace(std::string name, std::span<const Instruction> code,
             const ExecLog &log);

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
