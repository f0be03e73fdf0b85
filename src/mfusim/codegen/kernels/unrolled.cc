/**
 * @file
 * Livermore loops 1, 5, 11 and 12, canonical and software-unrolled.
 *
 *   Loop 1 — hydro fragment (vectorizable):
 *     DO 1 k = 1,n
 *   1   X(k) = Q + Y(k)*(R*Z(k+10) + T*Z(k+11))
 *
 *   Loop 5 — tri-diagonal elimination, below diagonal (scalar: a
 *   first-order linear recurrence):
 *     DO 5 i = 2,n
 *   5   X(i) = Z(i)*(Y(i) - X(i-1))
 *
 *   Loop 11 — first sum (scalar: a prefix-sum recurrence):
 *     DO 11 k = 2,n
 *   11  X(k) = X(k-1) + Y(k)
 *
 *   Loop 12 — first difference (vectorizable, every iteration
 *   independent):
 *     DO 12 k = 1,n
 *   12  X(k) = Y(k+1) - Y(k)
 *
 * Each builder takes an unroll factor and emits `factor` copies of
 * the loop body per loop-closing branch, with array accesses folded
 * into load/store displacements (loop 1's k+10/k+11 among them), the
 * induction pointers advanced once per (unrolled) iteration and the
 * scalar constants (loop 1's Q, R, T) held in S registers.  Factor 1
 * is the canonical kernel: buildKernel() builds loops 1, 5, 11 and 12
 * this way.  Every factor keeps the element-wise computation and
 * floating-point association order, so the same C++ references
 * validate the results.  In loop 5 the fsub/fmul pair on the
 * carried x[i-1] forms a 13-cycle serial dependence chain per
 * iteration, the paper's canonical "inherently scalar" loop.
 *
 * Registers are reused across the unrolled bodies exactly as a
 * simple compiler would reuse them: the streaming loops (1, 12)
 * recycle the same scratch registers -- so the unrolled code is
 * still WAW-serialized on machines without renaming, making these
 * kernels a sharp probe of the RUU's register instances -- and the
 * recurrences (5, 11) keep their loop-carried value in one register.
 */

#include <cassert>
#include <stdexcept>

#include "mfusim/codegen/kernels/kernels.hh"
#include "mfusim/codegen/reference_kernels.hh"

namespace mfusim
{

namespace
{

void
checkFactor(int n, int factor)
{
    assert((factor == 1 || factor == 2 || factor == 4 ||
            factor == 8) &&
           "unroll factor must be 1, 2, 4 or 8");
    assert(n % factor == 0 && "trip count must divide evenly");
    (void)n;
    (void)factor;
}

Kernel
buildLoop01Unrolled(int factor)
{
    constexpr int n = 400;
    constexpr std::uint64_t xBase = 0;
    constexpr std::uint64_t yBase = 500;
    constexpr std::uint64_t zBase = 1000;
    constexpr double q = 0.5;
    constexpr double r = 0.25;
    constexpr double t = 0.35;
    checkFactor(n, factor);

    Kernel kernel;
    kernel.spec = kernelSpecs()[0];
    kernel.memWords = 1500;

    std::vector<double> x(n, 0.0), y(n), z(n + 11);
    for (int k = 0; k < n; ++k)
        y[k] = kernelValue(1, std::uint64_t(k), 0.5, 1.5);
    for (int k = 0; k < n + 11; ++k)
        z[k] = kernelValue(1, 1000 + std::uint64_t(k), 0.5, 1.5);
    for (int k = 0; k < n; ++k)
        kernel.initF.push_back({ yBase + std::uint64_t(k), y[k] });
    for (int k = 0; k < n + 11; ++k)
        kernel.initF.push_back({ zBase + std::uint64_t(k), z[k] });

    Assembler as;
    as.aconst(A0, n / factor);  // loop count
    as.aconst(A1, xBase);       // &x[k]
    as.aconst(A2, yBase);       // &y[k]
    as.aconst(A3, zBase);       // &z[k]
    as.sconstf(S5, q);
    as.sconstf(S6, r);
    as.sconstf(S7, t);

    const auto loop = as.here();
    for (int u = 0; u < factor; ++u) {
        as.loadS(S1, A2, u);        // y[k]
        as.loadS(S2, A3, 10 + u);   // z[k+10]
        as.loadS(S3, A3, 11 + u);   // z[k+11]
        as.fmul(S2, S6, S2);        // r*z[k+10]
        as.fmul(S3, S7, S3);        // t*z[k+11]
        as.fadd(S2, S2, S3);
        as.fmul(S1, S1, S2);        // y[k]*(...)
        as.fadd(S1, S5, S1);        // q + ...
        as.storeS(A1, u, S1);
    }
    as.aaddi(A1, A1, factor);
    as.aaddi(A2, A2, factor);
    as.aaddi(A3, A3, factor);
    as.aaddi(A0, A0, -1);
    as.branz(loop);
    as.halt();
    kernel.program = as.finish();

    ref::loop1(x, y, z, q, r, t, n);
    for (int k = 0; k < n; ++k)
        kernel.expectF.push_back({ xBase + std::uint64_t(k), x[k] });
    return kernel;
}

Kernel
buildLoop05Unrolled(int factor)
{
    constexpr int n = 400;
    constexpr std::uint64_t xBase = 0;
    constexpr std::uint64_t yBase = 500;
    constexpr std::uint64_t zBase = 1000;
    // i runs 1..n-1: 399 iterations; unroll the first 396 (divisible
    // by 4) -- to keep the code simple we instead unroll (n-1-rem)
    // and peel the remainder sequentially before the loop.
    const int total = n - 1;
    const int rem = total % factor;

    Kernel kernel;
    kernel.spec = kernelSpecs()[4];
    kernel.memWords = 1500;

    std::vector<double> x(n), y(n), z(n);
    for (int i = 0; i < n; ++i) {
        x[i] = i == 0 ? kernelValue(5, 0, 0.5, 1.5) : 0.0;
        y[i] = kernelValue(5, 1000 + std::uint64_t(i), 1.5, 2.5);
        z[i] = kernelValue(5, 2000 + std::uint64_t(i), 0.5, 1.0);
    }
    kernel.initF.push_back({ xBase, x[0] });
    for (int i = 0; i < n; ++i) {
        kernel.initF.push_back({ yBase + std::uint64_t(i), y[i] });
        kernel.initF.push_back({ zBase + std::uint64_t(i), z[i] });
    }

    Assembler as;
    as.aconst(A0, (total - rem) / factor);
    as.aconst(A1, xBase + 1);   // &x[i]
    as.aconst(A2, yBase + 1);   // &y[i]
    as.aconst(A3, zBase + 1);   // &z[i]
    as.aconst(A4, xBase);
    as.loadS(S1, A4, 0);        // x[0] carried in S1

    // Peeled remainder iterations (straight-line).
    for (int p = 0; p < rem; ++p) {
        as.loadS(S2, A2, p);
        as.loadS(S3, A3, p);
        as.fsub(S2, S2, S1);
        as.fmul(S1, S3, S2);
        as.storeS(A1, p, S1);
    }
    if (rem > 0) {
        as.aaddi(A1, A1, rem);
        as.aaddi(A2, A2, rem);
        as.aaddi(A3, A3, rem);
    }

    const auto loop = as.here();
    for (int u = 0; u < factor; ++u) {
        as.loadS(S2, A2, u);    // y[i]
        as.loadS(S3, A3, u);    // z[i]
        as.fsub(S2, S2, S1);    // y[i] - x[i-1]
        as.fmul(S1, S3, S2);    // x[i]
        as.storeS(A1, u, S1);
    }
    as.aaddi(A1, A1, factor);
    as.aaddi(A2, A2, factor);
    as.aaddi(A3, A3, factor);
    as.aaddi(A0, A0, -1);
    as.branz(loop);
    as.halt();
    kernel.program = as.finish();

    ref::loop5(x, y, z, n);
    for (int i = 0; i < n; ++i)
        kernel.expectF.push_back({ xBase + std::uint64_t(i), x[i] });
    return kernel;
}

Kernel
buildLoop11Unrolled(int factor)
{
    constexpr int n = 400;
    constexpr std::uint64_t xBase = 0;
    constexpr std::uint64_t yBase = 500;
    const int total = n - 1;
    const int rem = total % factor;

    Kernel kernel;
    kernel.spec = kernelSpecs()[10];
    kernel.memWords = 1000;

    std::vector<double> x(n, 0.0), y(n);
    x[0] = kernelValue(11, 0, 0.5, 1.5);
    for (int k = 0; k < n; ++k)
        y[k] = kernelValue(11, 1000 + std::uint64_t(k), 0.5, 1.5);
    kernel.initF.push_back({ xBase, x[0] });
    for (int k = 0; k < n; ++k)
        kernel.initF.push_back({ yBase + std::uint64_t(k), y[k] });

    Assembler as;
    as.aconst(A0, (total - rem) / factor);
    as.aconst(A1, xBase + 1);   // &x[k]
    as.aconst(A2, yBase + 1);   // &y[k]
    as.aconst(A3, xBase);
    as.loadS(S1, A3, 0);        // x[0] carried: the running sum

    for (int p = 0; p < rem; ++p) {
        as.loadS(S2, A2, p);
        as.fadd(S1, S1, S2);
        as.storeS(A1, p, S1);
    }
    if (rem > 0) {
        as.aaddi(A1, A1, rem);
        as.aaddi(A2, A2, rem);
    }

    const auto loop = as.here();
    for (int u = 0; u < factor; ++u) {
        as.loadS(S2, A2, u);    // y[k]
        as.fadd(S1, S1, S2);    // x[k] = x[k-1] + y[k]
        as.storeS(A1, u, S1);
    }
    as.aaddi(A1, A1, factor);
    as.aaddi(A2, A2, factor);
    as.aaddi(A0, A0, -1);
    as.branz(loop);
    as.halt();
    kernel.program = as.finish();

    ref::loop11(x, y, n);
    for (int k = 0; k < n; ++k)
        kernel.expectF.push_back({ xBase + std::uint64_t(k), x[k] });
    return kernel;
}

Kernel
buildLoop12Unrolled(int factor)
{
    constexpr int n = 400;
    constexpr std::uint64_t xBase = 0;
    constexpr std::uint64_t yBase = 500;
    checkFactor(n, factor);

    Kernel kernel;
    kernel.spec = kernelSpecs()[11];
    kernel.memWords = 1000;

    std::vector<double> x(n, 0.0), y(n + 1);
    for (int k = 0; k < n + 1; ++k)
        y[k] = kernelValue(12, std::uint64_t(k), 0.5, 1.5);
    for (int k = 0; k < n + 1; ++k)
        kernel.initF.push_back({ yBase + std::uint64_t(k), y[k] });

    Assembler as;
    as.aconst(A0, n / factor);
    as.aconst(A1, xBase);
    as.aconst(A2, yBase);

    const auto loop = as.here();
    for (int u = 0; u < factor; ++u) {
        as.loadS(S1, A2, u + 1);    // y[k+1]
        as.loadS(S2, A2, u);        // y[k]
        as.fsub(S1, S1, S2);
        as.storeS(A1, u, S1);
    }
    as.aaddi(A1, A1, factor);
    as.aaddi(A2, A2, factor);
    as.aaddi(A0, A0, -1);
    as.branz(loop);
    as.halt();
    kernel.program = as.finish();

    ref::loop12(x, y, n);
    for (int k = 0; k < n; ++k)
        kernel.expectF.push_back({ xBase + std::uint64_t(k), x[k] });
    return kernel;
}

} // namespace

const std::vector<int> &
unrollableLoopIds()
{
    static const std::vector<int> ids = { 1, 5, 11, 12 };
    return ids;
}

Kernel
buildUnrolledKernel(int id, int factor)
{
    if (factor < 1 || factor > 8 || (factor & (factor - 1)) != 0) {
        throw std::invalid_argument(
            "buildUnrolledKernel: factor must be 1, 2, 4 or 8");
    }
    switch (id) {
      case 1:
        return buildLoop01Unrolled(factor);
      case 5:
        return buildLoop05Unrolled(factor);
      case 11:
        return buildLoop11Unrolled(factor);
      case 12:
        return buildLoop12Unrolled(factor);
      default:
        throw std::invalid_argument(
            "buildUnrolledKernel: loop " + std::to_string(id) +
            " has no unrolled variant (use 1, 5, 11 or 12)");
    }
}

} // namespace mfusim
