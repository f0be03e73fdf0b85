/**
 * @file
 * Bring-your-own-kernel: write a new benchmark with the assembler,
 * validate it functionally against a plain C++ model, then sweep it
 * across issue organizations -- the workflow for extending the
 * paper's study to new workloads.
 *
 * The kernel is complex multiply-accumulate over interleaved arrays:
 *
 *   for k in 0..n-1:
 *     acc_re += a_re[k]*b_re[k] - a_im[k]*b_im[k]
 *     acc_im += a_re[k]*b_im[k] + a_im[k]*b_re[k]
 *
 * with a divide by |b|^2 at the end (exercising the CRAY divide
 * idiom).
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "mfusim/mfusim.hh"

using namespace mfusim;

int
main()
{
    constexpr int n = 128;
    constexpr std::int64_t a_base = 0;      // interleaved re,im
    constexpr std::int64_t b_base = 300;
    constexpr std::int64_t out_base = 600;

    // ---- assembly ---------------------------------------------------
    Assembler as;
    as.aconst(A0, n);
    as.aconst(A1, a_base);
    as.aconst(A2, b_base);
    as.sconstf(S5, 0.0);        // acc_re
    as.sconstf(S6, 0.0);        // acc_im

    const auto loop = as.here();
    as.loadS(S1, A1, 0);        // a_re
    as.loadS(S2, A1, 1);        // a_im
    as.loadS(S3, A2, 0);        // b_re
    as.loadS(S4, A2, 1);        // b_im
    as.fmul(S7, S1, S3);        // a_re*b_re
    as.fadd(S5, S5, S7);
    as.fmul(S7, S2, S4);        // a_im*b_im
    as.fsub(S5, S5, S7);        // acc_re
    as.fmul(S7, S1, S4);        // a_re*b_im
    as.fadd(S6, S6, S7);
    as.fmul(S7, S2, S3);        // a_im*b_re
    as.fadd(S6, S6, S7);        // acc_im
    as.aaddi(A1, A1, 2);
    as.aaddi(A2, A2, 2);
    as.aaddi(A0, A0, -1);
    as.branz(loop);

    // Normalize acc_re by (b_re[0]^2 + b_im[0]^2) via the CRAY
    // reciprocal divide idiom.
    as.aconst(A2, b_base);
    as.loadS(S1, A2, 0);
    as.loadS(S2, A2, 1);
    as.fmul(S1, S1, S1);
    as.fmul(S2, S2, S2);
    as.fadd(S1, S1, S2);        // |b0|^2
    as.fdiv(S3, S5, S1, S2, S4);
    as.aconst(A3, out_base);
    as.storeS(A3, 0, S3);
    as.storeS(A3, 1, S5);
    as.storeS(A3, 2, S6);
    as.halt();
    Program program = as.finish();

    // ---- functional validation --------------------------------------
    Interpreter interp(program, 700);
    double acc_re = 0.0, acc_im = 0.0;
    std::vector<double> b0(2, 0.0);
    for (int k = 0; k < n; ++k) {
        const double are = kernelValue(99, std::uint64_t(k), -1, 1);
        const double aim =
            kernelValue(99, 1000 + std::uint64_t(k), -1, 1);
        const double bre =
            kernelValue(99, 2000 + std::uint64_t(k), -1, 1);
        const double bim =
            kernelValue(99, 3000 + std::uint64_t(k), -1, 1);
        interp.pokeMemF(std::uint64_t(a_base + 2 * k), are);
        interp.pokeMemF(std::uint64_t(a_base + 2 * k + 1), aim);
        interp.pokeMemF(std::uint64_t(b_base + 2 * k), bre);
        interp.pokeMemF(std::uint64_t(b_base + 2 * k + 1), bim);
        acc_re = (acc_re + are * bre) - aim * bim;
        acc_im = (acc_im + are * bim) + aim * bre;
        if (k == 0) {
            b0[0] = bre;
            b0[1] = bim;
        }
    }
    const DynTrace trace("cmacc", program.code, interp.run());
    const double norm = b0[0] * b0[0] + b0[1] * b0[1];
    const double expected = ref::refDiv(acc_re, norm);

    const double got = interp.peekMemF(out_base);
    std::printf("functional check: got %.12f, expected %.12f (%s)\n\n",
                got, expected,
                std::fabs(got - expected) < 1e-9 * std::fabs(expected)
                    ? "OK"
                    : "MISMATCH");

    // ---- timing sweep -------------------------------------------------
    std::printf("issue-rate sweep over organizations (M11BR5):\n");
    const MachineConfig cfg = configM11BR5();
    const LimitResult limit = computeLimits(trace, cfg);

    ScoreboardSim cray(ScoreboardConfig::crayLike(), cfg);
    std::printf("  %-26s %.3f\n", "CRAY-like single issue",
                cray.run(trace).issueRate());
    for (unsigned w : { 2u, 4u }) {
        MultiIssueSim seq({ w, false, BusKind::kPerUnit, false }, cfg);
        MultiIssueSim ooo({ w, true, BusKind::kPerUnit, false }, cfg);
        std::printf("  seq issue w=%-14u %.3f\n", w,
                    seq.run(trace).issueRate());
        std::printf("  ooo issue w=%-14u %.3f\n", w,
                    ooo.run(trace).issueRate());
    }
    for (unsigned w : { 1u, 2u, 4u }) {
        RuuSim ruu({ w, 48, BusKind::kPerUnit }, cfg);
        std::printf("  RUU w=%u size=48%9s %.3f\n", w, "",
                    ruu.run(trace).issueRate());
    }
    std::printf("  %-26s %.3f\n", "dataflow limit",
                limit.actualRate);
    return 0;
}
