/**
 * @file
 * Livermore Loop 6 — general linear recurrence equations (scalar).
 *
 *   DO 6 i = 2,n
 *     W(i) = 0.0100
 *     DO 6 k = 1,i-1
 * 6     W(i) = W(i) + B(k,i)*W(i-k)
 *
 * A triangular doubly nested loop: the inner accumulation walks B
 * down a column (stride n) and W backwards (stride -1), and every
 * W(i) depends on all earlier W values.
 */

#include "mfusim/codegen/kernels/kernels.hh"
#include "mfusim/codegen/reference_kernels.hh"

namespace mfusim
{
namespace kernels
{

Kernel
buildLoop06()
{
    constexpr int n = 64;
    constexpr std::uint64_t wBase = 0;
    constexpr std::uint64_t bBase = 100;    // flattened [n][n]

    Kernel kernel;
    kernel.spec = kernelSpecs()[5];
    kernel.memWords = 100 + n * n + 50;

    std::vector<double> w(n, 0.0), b(std::size_t(n) * n);
    w[0] = kernelValue(6, 0, 0.5, 1.5);
    for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = kernelValue(6, 1000 + i, 0.0, 0.02);

    // Reserved exactly: grown by doubling, the 4097 cells would take
    // a 128 KiB block, and the trace library frees none that large
    // (trace_library.hh).
    kernel.initF.reserve(1 + b.size());
    kernel.initF.push_back({ wBase, w[0] });
    for (std::size_t i = 0; i < b.size(); ++i)
        kernel.initF.push_back({ bBase + i, b[i] });

    Assembler as;
    // A4 = i, A3 = &w[i]
    as.aconst(A4, 1);
    as.aconst(A3, wBase + 1);
    as.sconstf(S5, 0.01);

    const auto outer = as.here();
    as.smovs(S1, S5);               // accumulator = 0.01
    as.aconst(A6, bBase);
    as.aadd(A1, A6, A4);            // A1 = &b[0][i] = bBase + i
    as.aconst(A6, std::int64_t(wBase) - 1);
    as.aadd(A2, A6, A4);            // A2 = &w[i-1]
    as.aaddi(A0, A4, 0);            // inner count = i

    const auto inner = as.here();
    as.loadS(S2, A1, 0);            // b[k][i]
    as.loadS(S3, A2, 0);            // w[i-k-1]
    as.fmul(S2, S2, S3);
    as.fadd(S1, S1, S2);
    as.aaddi(A1, A1, n);            // next row of B
    as.aaddi(A2, A2, -1);           // w walks backwards
    as.aaddi(A0, A0, -1);
    as.branz(inner);

    as.storeS(A3, 0, S1);           // w[i]
    as.aaddi(A3, A3, 1);
    as.aaddi(A4, A4, 1);
    as.aconst(A6, n);
    as.asub(A0, A6, A4);            // while (i < n)
    as.branz(outer);
    as.halt();
    kernel.program = as.finish();

    ref::loop6(w, b, n);
    for (int i = 0; i < n; ++i)
        kernel.expectF.push_back({ wBase + std::uint64_t(i), w[i] });

    return kernel;
}

} // namespace kernels
} // namespace mfusim
