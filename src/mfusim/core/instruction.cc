/**
 * @file
 * Instruction disassembly.
 */

#include "mfusim/core/instruction.hh"

namespace mfusim
{

std::string
Instruction::disassemble() const
{
    const OpTraits &traits = traitsOf(op);
    std::string text = traits.mnemonic;

    const auto pad = [&text]() { text += ' '; };

    switch (traits.shape) {
      case OperandShape::kNone:
        if (op == Op::kAConst || op == Op::kSConst) {
            pad();
            text += regName(dst) + ", " + std::to_string(imm);
        }
        break;
      case OperandShape::kOneSrc:
        pad();
        text += regName(dst) + ", " + regName(srcA);
        break;
      case OperandShape::kTwoSrc:
        pad();
        text += regName(dst) + ", " + regName(srcA) + ", " + regName(srcB);
        break;
      case OperandShape::kSrcImm:
        pad();
        text += regName(dst) + ", " + regName(srcA) + ", " +
            std::to_string(imm);
        break;
      case OperandShape::kLoad:
        pad();
        text += regName(dst) + ", " + std::to_string(imm) + "(" +
            regName(srcA) + ")";
        break;
      case OperandShape::kStore:
        pad();
        text += regName(srcB) + ", " + std::to_string(imm) + "(" +
            regName(srcA) + ")";
        break;
      case OperandShape::kBranchCond:
        pad();
        text += regName(srcA) + ", @" + std::to_string(imm);
        break;
      case OperandShape::kBranchUncond:
        pad();
        text += '@';
        text += std::to_string(imm);
        break;
    }
    return text;
}

} // namespace mfusim
