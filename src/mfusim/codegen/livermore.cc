/**
 * @file
 * Livermore loop dispatch, synthetic data, and validation.
 */

#include "mfusim/codegen/livermore.hh"

#include <cmath>
#include <stdexcept>

#include "mfusim/codegen/interpreter.hh"
#include "mfusim/codegen/kernels/kernels.hh"
#include "mfusim/core/error.hh"

namespace mfusim
{

const std::vector<KernelSpec> &
kernelSpecs()
{
    static const std::vector<KernelSpec> specs = {
        { 1, "hydro fragment", true },
        { 2, "ICCG excerpt", true },
        { 3, "inner product", true },
        { 4, "banded linear equations", true },
        { 5, "tri-diagonal elimination", false },
        { 6, "general linear recurrence", false },
        { 7, "equation of state fragment", true },
        { 8, "ADI integration", true },
        { 9, "integrate predictors", true },
        { 10, "difference predictors", true },
        { 11, "first sum", false },
        { 12, "first difference", true },
        { 13, "2-D particle in cell", false },
        { 14, "1-D particle in cell", false },
    };
    return specs;
}

const std::vector<int> &
scalarLoopIds()
{
    static const std::vector<int> ids = { 5, 6, 11, 13, 14 };
    return ids;
}

const std::vector<int> &
vectorizableLoopIds()
{
    static const std::vector<int> ids = { 1, 2, 3, 4, 7, 8, 9, 10, 12 };
    return ids;
}

Kernel
buildKernel(int id)
{
    using namespace kernels;
    switch (id) {
      case 1: return buildUnrolledKernel(1, 1);
      case 2: return buildLoop02();
      case 3: return buildLoop03();
      case 4: return buildLoop04();
      case 5: return buildUnrolledKernel(5, 1);
      case 6: return buildLoop06();
      case 7: return buildLoop07();
      case 8: return buildLoop08();
      case 9: return buildLoop09();
      case 10: return buildLoop10();
      case 11: return buildUnrolledKernel(11, 1);
      case 12: return buildUnrolledKernel(12, 1);
      case 13: return buildLoop13();
      case 14: return buildLoop14();
      default:
        throw std::invalid_argument(
            "buildKernel: loop id must be 1..14, got " +
            std::to_string(id));
    }
}

double
kernelValue(int kernelId, std::uint64_t index, double lo, double hi)
{
    // splitmix64 over (kernelId, index)
    std::uint64_t z =
        (std::uint64_t(kernelId) << 32) + index + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z = z ^ (z >> 31);
    const double unit = double(z >> 11) * 0x1.0p-53;    // [0, 1)
    return lo + unit * (hi - lo);
}

namespace
{

/** Execute @p kernel, recording its reference check in @p check. */
ExecLog
executeKernel(const Kernel &kernel, KernelCheck &check)
{
    Interpreter interp(kernel.program, kernel.memWords);
    for (const MemValF &cell : kernel.initF)
        interp.pokeMemF(cell.addr, cell.value);
    for (const MemValI &cell : kernel.initI)
        interp.pokeMem(cell.addr, std::uint64_t(cell.value));

    ExecLog log = interp.run();

    for (const MemValF &cell : kernel.expectF) {
        check.checkedCells++;
        const double got = interp.peekMemF(cell.addr);
        const double want = cell.value;
        const double mag = std::max(std::fabs(want), 1e-30);
        const double rel = std::fabs(got - want) / mag;
        check.maxRelError = std::max(check.maxRelError, rel);
        if (!(rel < 1e-9))
            check.mismatches++;
    }
    for (const MemValI &cell : kernel.expectI) {
        check.checkedCells++;
        if (std::int64_t(interp.peekMem(cell.addr)) != cell.value)
            check.mismatches++;
    }
    return log;
}

} // namespace

KernelRun
runKernel(const Kernel &kernel, std::string traceName)
{
    if (traceName.empty())
        traceName = "LL" + std::to_string(kernel.spec.id);
    KernelRun run;
    const ExecLog log = executeKernel(kernel, run);
    run.trace = DynTrace(std::move(traceName), kernel.program.code, log);
    return run;
}

ExecLog
validatedLog(const Kernel &kernel, const std::string &label)
{
    KernelCheck check;
    ExecLog log = executeKernel(kernel, check);
    if (check.mismatches != 0) {
        throw Error("loop " + label + " failed reference validation (" +
                    std::to_string(check.mismatches) + "/" +
                    std::to_string(check.checkedCells) + " cells)");
    }
    return log;
}

DynTrace
traceKernel(int id)
{
    const Kernel kernel = buildKernel(id);
    return DynTrace("LL" + std::to_string(id), kernel.program.code,
                    validatedLog(kernel, std::to_string(id)));
}

} // namespace mfusim
