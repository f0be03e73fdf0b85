/**
 * @file
 * Quickstart: write a tiny program with the assembler, execute it in
 * the functional interpreter, expand its execution log into a dynamic
 * trace, and measure its issue rate on the paper's machines.
 *
 * The program is DAXPY: y[i] = a*x[i] + y[i] over 64 elements.
 *
 *   $ ./examples/quickstart
 */

#include <cstdio>

#include "mfusim/mfusim.hh"

using namespace mfusim;

int
main()
{
    // ---- 1. write the program --------------------------------------
    constexpr int n = 64;
    constexpr std::int64_t x_base = 0;
    constexpr std::int64_t y_base = 100;
    constexpr double a = 2.5;

    Assembler as;
    as.aconst(A0, n);           // loop counter (A0 drives branches)
    as.aconst(A1, x_base);
    as.aconst(A2, y_base);
    as.sconstf(S5, a);

    const auto loop = as.here();
    as.loadS(S1, A1, 0);        // x[i]
    as.loadS(S2, A2, 0);        // y[i]
    as.fmul(S1, S5, S1);        // a*x[i]
    as.fadd(S1, S1, S2);        // a*x[i] + y[i]
    as.storeS(A2, 0, S1);
    as.aaddi(A1, A1, 1);
    as.aaddi(A2, A2, 1);
    as.aaddi(A0, A0, -1);
    as.branz(loop);
    as.halt();
    Program program = as.finish();

    std::printf("DAXPY, first instructions:\n%s...\n\n",
                Program{ { program.code.begin(),
                           program.code.begin() + 6 } }
                    .disassemble()
                    .c_str());

    // ---- 2. execute it for real, then expand its log into a trace --
    Interpreter interp(program, 200);
    for (int i = 0; i < n; ++i) {
        interp.pokeMemF(std::uint64_t(x_base + i), double(i));
        interp.pokeMemF(std::uint64_t(y_base + i), 1.0);
    }
    const DynTrace trace("daxpy", program.code, interp.run());
    std::printf("executed %zu instructions; y[3] = %.2f (expect "
                "%.2f)\n\n",
                trace.size(), interp.peekMemF(y_base + 3),
                a * 3.0 + 1.0);

    // ---- 3. time it on the paper's machines ------------------------
    const MachineConfig cfg = configM11BR5();   // CRAY-1S-like

    SimpleSim simple(cfg);
    ScoreboardSim cray(ScoreboardConfig::crayLike(), cfg);
    MultiIssueSim multi({ 4, true, BusKind::kPerUnit, false }, cfg);
    RuuSim ruu({ 4, 50, BusKind::kPerUnit }, cfg);

    std::printf("issue rates on %s:\n", cfg.name().c_str());
    std::printf("  %-28s %.3f instr/cycle\n", simple.name().c_str(),
                simple.run(trace).issueRate());
    std::printf("  %-28s %.3f instr/cycle\n", cray.name().c_str(),
                cray.run(trace).issueRate());
    std::printf("  %-28s %.3f instr/cycle\n", multi.name().c_str(),
                multi.run(trace).issueRate());
    std::printf("  %-28s %.3f instr/cycle\n", ruu.name().c_str(),
                ruu.run(trace).issueRate());

    const LimitResult limit = computeLimits(trace, cfg);
    std::printf("  %-28s %.3f instr/cycle\n", "dataflow limit",
                limit.actualRate);
    return 0;
}
