/**
 * @file
 * The 14 Lawrence Livermore Loops as base-architecture programs.
 *
 * The paper's benchmark programs were "the original 14 Lawrence
 * Livermore Loops", divided into the 5 scalar loops (5, 6, 11, 13,
 * 14) and the 9 vectorizable loops (1, 2, 3, 4, 7, 8, 9, 10, 12).
 * mfusim hand-compiles each kernel to the base ISA the way a
 * straightforward, non-optimizing compiler would: greedy register
 * allocation, induction-variable addressing, no unrolling, no
 * instruction scheduling (the paper: "we did not make any
 * modifications to the code").
 *
 * Every kernel comes with a plain C++ reference implementation
 * (reference_kernels.hh) run on identical input data; the memory
 * image after interpreting the assembly is validated against the
 * reference, guaranteeing the traces that drive all timing
 * experiments compute the intended kernels.
 *
 * Trip counts and adaptations (documented per kernel in the
 * loopNN.cc files):
 *  - vector lengths are in the few-hundreds (steady-state issue rates
 *    converge after tens of iterations);
 *  - kernels 13/14 keep LFK's mixed integer/float particle-in-cell
 *    structure but add an explicit wrap mask after the indirect index
 *    increments so that synthetic data can never index out of grid
 *    bounds.
 */

#ifndef MFUSIM_CODEGEN_LIVERMORE_HH
#define MFUSIM_CODEGEN_LIVERMORE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mfusim/codegen/assembler.hh"
#include "mfusim/core/trace.hh"

namespace mfusim
{

/** Identity of one Livermore loop. */
struct KernelSpec
{
    int id;                 //!< 1..14
    const char *name;       //!< e.g. "hydro fragment"
    bool vectorizable;      //!< the paper's loop classification
};

/** Floating-point memory cell initialization / expectation. */
struct MemValF
{
    std::uint64_t addr;
    double value;
};

/** Integer memory cell initialization / expectation. */
struct MemValI
{
    std::uint64_t addr;
    std::int64_t value;
};

/**
 * A fully assembled, runnable, checkable benchmark kernel.
 */
struct Kernel
{
    KernelSpec spec;
    Program program;
    std::size_t memWords = 0;
    std::vector<MemValF> initF;     //!< pre-run FP memory image
    std::vector<MemValI> initI;     //!< pre-run integer memory image
    std::vector<MemValF> expectF;   //!< post-run FP expectations
    std::vector<MemValI> expectI;   //!< post-run integer expectations
};

/** How a kernel's final memory image compared with its reference. */
struct KernelCheck
{
    std::size_t checkedCells = 0;   //!< number of cells compared
    std::size_t mismatches = 0;     //!< cells beyond tolerance
    double maxRelError = 0.0;       //!< worst FP relative error seen
};

/** Outcome of executing a kernel and checking it against reference. */
struct KernelRun : KernelCheck
{
    DynTrace trace;
};

/** Specs of all 14 loops, in id order. */
const std::vector<KernelSpec> &kernelSpecs();

/** The paper's scalar loop ids: {5, 6, 11, 13, 14}. */
const std::vector<int> &scalarLoopIds();

/** The paper's vectorizable loop ids: {1, 2, 3, 4, 7, 8, 9, 10, 12}. */
const std::vector<int> &vectorizableLoopIds();

/**
 * Build (assemble + compute reference expectations for) loop @p id.
 * Loops 1, 5, 11 and 12 are buildUnrolledKernel(id, 1).
 */
Kernel buildKernel(int id);

/**
 * Loops with software-unrolled variants: 1, 5, 11, 12 (two parallel
 * streaming loops and two first-order recurrences).
 */
const std::vector<int> &unrollableLoopIds();

/**
 * Build loop @p id unrolled by @p factor (1, 2, 4 or 8).
 *
 * The paper keeps compiled code untouched ("we did not make any
 * modifications to the code") but remarks that "loop unrolling will
 * in some cases shorten the critical path because some of the
 * program's branches are removed".  These variants quantify that:
 * identical element-wise computation and FP evaluation order (so the
 * same reference validates them), with @p factor bodies per
 * loop-closing branch.  Factor 1 is the canonical kernel: buildKernel()
 * returns it for these loops, so "5x1" and "5" time one trace.
 */
Kernel buildUnrolledKernel(int id, int factor);

/** Loops with CRAY-1 vector-unit variants (extension): 1, 7, 12. */
const std::vector<int> &vectorizedLoopIds();

/**
 * Build loop @p id compiled for the vector unit: strip-mined
 * 64-element vector operations with a VL'd tail, validated against
 * the same C++ reference as the scalar kernel.  Only the CRAY-like
 * ScoreboardSim (and SimpleSim) can time the resulting traces; the
 * multiple-issue machines are scalar-only, as in the paper.
 */
Kernel buildVectorizedKernel(int id);

/**
 * Execute @p kernel in the functional Interpreter and validate the
 * final memory image against the reference expectations.  The trace
 * is expanded from the execution log, reserved to its exact size;
 * @p traceName defaults to "LL<id>".
 */
KernelRun runKernel(const Kernel &kernel, std::string traceName = "");

/**
 * Execute @p kernel in the functional Interpreter and return its
 * execution log, once the final memory image has passed every
 * reference check: what traceKernel() does short of expanding the
 * trace.
 * @throws Error naming loop @p label (e.g. "6", "1x4") if any cell
 *         is beyond tolerance.
 */
ExecLog validatedLog(const Kernel &kernel, const std::string &label);

/** Convenience: buildKernel + validatedLog, expanded into a trace
 *  named "LL<id>". */
DynTrace traceKernel(int id);

/**
 * Deterministic synthetic benchmark data: a reproducible double in
 * [lo, hi) derived from (kernelId, index) by a splitmix64 hash.  The
 * assembly kernels and the C++ references both draw their inputs
 * from this function, so their results are directly comparable.
 */
double kernelValue(int kernelId, std::uint64_t index,
                   double lo, double hi);

} // namespace mfusim

#endif // MFUSIM_CODEGEN_LIVERMORE_HH
