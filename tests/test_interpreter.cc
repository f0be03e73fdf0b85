/**
 * @file
 * Functional interpreter tests: per-opcode semantics, control flow,
 * memory access, and trace recording.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "mfusim/codegen/interpreter.hh"

namespace mfusim
{
namespace
{

/** Run a tiny program and return the interpreter for inspection. */
struct Ran
{
    explicit Ran(const Program &p, std::size_t mem = 64)
        : interp(p, mem)
    {
        trace = DynTrace("t", p.code, interp.run());
    }
    Interpreter interp;
    DynTrace trace;
};

TEST(Interpreter, AddressArithmetic)
{
    Assembler as;
    as.aconst(A1, 10);
    as.aconst(A2, 3);
    as.aadd(A3, A1, A2);
    as.asub(A4, A1, A2);
    as.amul(A5, A1, A2);
    as.aaddi(A6, A1, -4);
    as.halt();
    Program p = as.finish();
    Ran r(p);
    EXPECT_EQ(r.interp.peekA(3), 13);
    EXPECT_EQ(r.interp.peekA(4), 7);
    EXPECT_EQ(r.interp.peekA(5), 30);
    EXPECT_EQ(r.interp.peekA(6), 6);
}

TEST(Interpreter, ScalarIntegerAndLogical)
{
    Assembler as;
    as.sconsti(S1, 0b1100);
    as.sconsti(S2, 0b1010);
    as.sadd(S3, S1, S2);
    as.ssub(S4, S1, S2);
    as.sand_(S5, S1, S2);
    as.sor_(S6, S1, S2);
    as.sxor_(S7, S1, S2);
    as.halt();
    Ran r(as.finish());
    EXPECT_EQ(r.interp.peekS(3), 22u);
    EXPECT_EQ(r.interp.peekS(4), 2u);
    EXPECT_EQ(r.interp.peekS(5), 0b1000u);
    EXPECT_EQ(r.interp.peekS(6), 0b1110u);
    EXPECT_EQ(r.interp.peekS(7), 0b0110u);
}

TEST(Interpreter, Shifts)
{
    Assembler as;
    as.sconsti(S1, 3);
    as.sshl(S2, S1, 4);
    as.sconsti(S3, -8);         // logical right shift of the pattern
    as.sshr(S4, S3, 1);
    as.halt();
    Ran r(as.finish());
    EXPECT_EQ(r.interp.peekS(2), 48u);
    EXPECT_EQ(r.interp.peekS(4), 0x7FFFFFFFFFFFFFFCu);
}

TEST(Interpreter, FloatingPoint)
{
    Assembler as;
    as.sconstf(S1, 2.5);
    as.sconstf(S2, 4.0);
    as.fadd(S3, S1, S2);
    as.fsub(S4, S1, S2);
    as.fmul(S5, S1, S2);
    as.frecip(S6, S2);
    as.halt();
    Ran r(as.finish());
    EXPECT_DOUBLE_EQ(r.interp.peekSF(3), 6.5);
    EXPECT_DOUBLE_EQ(r.interp.peekSF(4), -1.5);
    EXPECT_DOUBLE_EQ(r.interp.peekSF(5), 10.0);
    EXPECT_DOUBLE_EQ(r.interp.peekSF(6), 0.25);
}

TEST(Interpreter, FixAndFloatConversions)
{
    Assembler as;
    as.sconstf(S1, 7.9);
    as.sfix(S2, S1);            // truncates toward zero
    as.sconstf(S3, -7.9);
    as.sfix(S4, S3);
    as.sconsti(S5, 12);
    as.sfloat(S6, S5);
    as.halt();
    Ran r(as.finish());
    EXPECT_EQ(std::int64_t(r.interp.peekS(2)), 7);
    EXPECT_EQ(std::int64_t(r.interp.peekS(4)), -7);
    EXPECT_DOUBLE_EQ(r.interp.peekSF(6), 12.0);
}

TEST(Interpreter, RegisterTransfers)
{
    Assembler as;
    as.aconst(A1, 42);
    as.smova(S1, A1);
    as.amovs(A2, S1);
    as.bmova(regB(3), A1);
    as.amovb(A3, regB(3));
    as.tmovs(regT(7), S1);
    as.smovt(S2, regT(7));
    as.smovs(S3, S2);
    as.halt();
    Ran r(as.finish());
    EXPECT_EQ(r.interp.peekA(2), 42);
    EXPECT_EQ(r.interp.peekA(3), 42);
    EXPECT_EQ(std::int64_t(r.interp.peekS(2)), 42);
    EXPECT_EQ(std::int64_t(r.interp.peekS(3)), 42);
}

TEST(Interpreter, LoadsAndStores)
{
    Assembler as;
    as.aconst(A1, 10);
    as.sconstf(S1, 3.25);
    as.storeS(A1, 2, S1);       // mem[12] = 3.25
    as.loadS(S2, A1, 2);
    as.aconst(A2, 777);
    as.storeA(A1, 3, A2);       // mem[13] = 777
    as.loadA(A3, A1, 3);
    as.halt();
    Ran r(as.finish());
    EXPECT_DOUBLE_EQ(r.interp.peekMemF(12), 3.25);
    EXPECT_DOUBLE_EQ(r.interp.peekSF(2), 3.25);
    EXPECT_EQ(std::int64_t(r.interp.peekMem(13)), 777);
    EXPECT_EQ(r.interp.peekA(3), 777);
}

TEST(Interpreter, OutOfBoundsLoadThrows)
{
    Assembler as;
    as.aconst(A1, 1000);
    as.loadS(S1, A1, 0);
    as.halt();
    Program p = as.finish();
    Interpreter interp(p, 64);
    EXPECT_THROW(interp.run(), std::runtime_error);
}

TEST(Interpreter, NegativeAddressThrows)
{
    Assembler as;
    as.aconst(A1, 0);
    as.storeS(A1, -1, S1);
    as.halt();
    Program p = as.finish();
    Interpreter interp(p, 64);
    EXPECT_THROW(interp.run(), std::runtime_error);
}

TEST(Interpreter, ConditionalBranchSemantics)
{
    // Count down from 3: the loop body runs 3 times.
    Assembler as;
    as.aconst(A0, 3);
    as.aconst(A1, 0);
    const auto loop = as.here();
    as.aaddi(A1, A1, 1);
    as.aaddi(A0, A0, -1);
    as.branz(loop);
    as.halt();
    Ran r(as.finish());
    EXPECT_EQ(r.interp.peekA(1), 3);
    // 2 setup + 3 iterations x 3 ops.
    EXPECT_EQ(r.trace.size(), 11u);
}

TEST(Interpreter, BranchOutcomesRecordedInTrace)
{
    Assembler as;
    as.aconst(A0, 2);
    const auto loop = as.here();
    as.aaddi(A0, A0, -1);
    as.branz(loop);
    as.halt();
    Ran r(as.finish());
    // Trace: aconst, (aaddi, branz taken), (aaddi, branz not-taken).
    ASSERT_EQ(r.trace.size(), 5u);
    EXPECT_TRUE(r.trace[2].taken);
    EXPECT_FALSE(r.trace[4].taken);
}

TEST(Interpreter, SignBranches)
{
    Assembler as;
    const auto neg = as.newLabel();
    as.aconst(A0, -5);
    as.bram(neg);               // taken: A0 < 0
    as.aconst(A2, 111);         // skipped
    as.bind(neg);
    as.aconst(A3, 222);
    as.halt();
    Ran r(as.finish());
    EXPECT_EQ(r.interp.peekA(2), 0);
    EXPECT_EQ(r.interp.peekA(3), 222);
}

TEST(Interpreter, SRegisterBranches)
{
    Assembler as;
    const auto done = as.newLabel();
    as.sconsti(S0, 0);
    as.brsz(done);              // taken
    as.aconst(A1, 1);           // skipped
    as.bind(done);
    as.halt();
    Ran r(as.finish());
    EXPECT_EQ(r.interp.peekA(1), 0);
}

TEST(Interpreter, JumpIsAlwaysTaken)
{
    Assembler as;
    const auto over = as.newLabel();
    as.jump(over);
    as.aconst(A1, 9);           // never executed
    as.bind(over);
    as.halt();
    Ran r(as.finish());
    EXPECT_EQ(r.interp.peekA(1), 0);
    ASSERT_EQ(r.trace.size(), 1u);
    EXPECT_TRUE(r.trace[0].taken);
}

TEST(Interpreter, HaltNotRecordedInTrace)
{
    Assembler as;
    as.aconst(A1, 1);
    as.halt();
    Ran r(as.finish());
    EXPECT_EQ(r.trace.size(), 1u);
    EXPECT_EQ(r.trace[0].op, Op::kAConst);
}

TEST(Interpreter, DynOpLimitThrows)
{
    Assembler as;
    const auto forever = as.here();
    as.jump(forever);
    Program p = as.finish();
    Interpreter interp(p, 8);
    EXPECT_THROW(interp.run(1000), std::runtime_error);
}

TEST(Interpreter, PokePeekMemory)
{
    Assembler as;
    as.halt();
    Program p = as.finish();
    Interpreter interp(p, 16);
    interp.pokeMemF(3, 2.75);
    interp.pokeMem(4, 0xDEAD);
    EXPECT_DOUBLE_EQ(interp.peekMemF(3), 2.75);
    EXPECT_EQ(interp.peekMem(4), 0xDEADu);
}

} // namespace
} // namespace mfusim
