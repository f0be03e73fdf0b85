/**
 * @file
 * Functional interpreter for the base architecture.
 *
 * The Interpreter executes a static Program with full architectural
 * semantics (register files, word-addressed memory, branch outcomes)
 * and records the executed instruction stream as an ExecLog: 4 bytes
 * per executed instruction (static index, taken bit, vector length),
 * everything else being the program's.  It is the mfusim substitute
 * for the paper's instruction-trace generation step: "Instruction
 * traces were generated for each of the benchmark programs and then
 * used to drive the simulations."
 *
 * The log is the interpreter's only output.  The simulation path
 * decodes it straight into a TraceBody (decoded_trace.hh), so the
 * trace library never builds the 16 B/op DynTrace; callers that want
 * raw ops expand one, reserved to its exact size, with
 * DynTrace(name, program.code, log).
 *
 * Because it computes real values, kernel results can be validated
 * against plain C++ reference implementations, guaranteeing that the
 * traces that drive the timing experiments execute the intended
 * computation.
 */

#ifndef MFUSIM_CODEGEN_INTERPRETER_HH
#define MFUSIM_CODEGEN_INTERPRETER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "mfusim/codegen/assembler.hh"
#include "mfusim/core/trace.hh"

namespace mfusim
{

/**
 * Executes Programs and logs their execution.
 *
 * Memory is an array of 64-bit words (the CRAY-1 is word addressed);
 * S and T registers hold raw 64-bit patterns interpreted as two's
 * complement integers or IEEE doubles depending on the operation,
 * A and B registers hold signed integers (addresses / counters).
 */
class Interpreter
{
  public:
    /**
     * @param program  the program to execute (must end in kHalt on
     *                 every path)
     * @param memWords size of the data memory in 64-bit words
     * @throws std::runtime_error if @p program has more instructions
     *         than an ExecLog entry can index.
     */
    Interpreter(const Program &program, std::size_t memWords);

    // ---- pre/post-run state access --------------------------------
    void pokeMem(std::uint64_t addr, std::uint64_t bits);
    void pokeMemF(std::uint64_t addr, double value);
    std::uint64_t peekMem(std::uint64_t addr) const;
    double peekMemF(std::uint64_t addr) const;

    std::int64_t peekA(unsigned i) const { return aRegs_[i]; }
    std::uint64_t peekS(unsigned i) const { return sRegs_[i]; }
    double peekSF(unsigned i) const;
    /** Element @p k of vector register V<i> (extension). */
    double peekVF(unsigned i, unsigned k) const;
    unsigned peekVL() const { return vl_; }

    std::size_t memWords() const { return memory_.size(); }

    /**
     * Run the program from instruction 0 until kHalt, logging every
     * executed instruction (kHalt itself is not logged).
     *
     * @param maxDynOps  safety valve against runaway programs; an
     *                   exception is thrown when exceeded
     * @throws std::runtime_error on out-of-bounds memory access,
     *         PC escape, or dynamic-op overflow.
     */
    ExecLog run(std::uint64_t maxDynOps = 50'000'000);

  private:
    std::uint64_t loadWord(std::int64_t addr) const;
    void storeWord(std::int64_t addr, std::uint64_t bits);

    const Program &program_;
    std::array<std::int64_t, kNumARegs> aRegs_{};
    std::array<std::uint64_t, kNumSRegs> sRegs_{};
    std::array<std::int64_t, kNumBRegs> bRegs_{};
    std::array<std::uint64_t, kNumTRegs> tRegs_{};
    std::array<std::array<double, kVectorLength>, kNumVRegs> vRegs_{};
    unsigned vl_ = kVectorLength;
    std::vector<std::uint64_t> memory_;
};

} // namespace mfusim

#endif // MFUSIM_CODEGEN_INTERPRETER_HH
