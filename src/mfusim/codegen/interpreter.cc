/**
 * @file
 * Functional interpreter implementation.
 */

#include "mfusim/codegen/interpreter.hh"

#include <bit>
#include <stdexcept>
#include <string>

namespace mfusim
{

namespace
{

double
asF(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

std::uint64_t
asBits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

std::int64_t
asI(std::uint64_t bits)
{
    return std::bit_cast<std::int64_t>(bits);
}

std::uint64_t
fromI(std::int64_t value)
{
    return std::bit_cast<std::uint64_t>(value);
}

} // namespace

Interpreter::Interpreter(const Program &program, std::size_t memWords)
    : program_(program), memory_(memWords, 0)
{
    if (program.size() > std::size_t(ExecLog::kMaxStaticIdx) + 1) {
        throw std::runtime_error(
            "Interpreter: program of " + std::to_string(program.size()) +
            " instructions exceeds the execution log's static index");
    }
}

void
Interpreter::pokeMem(std::uint64_t addr, std::uint64_t bits)
{
    memory_.at(addr) = bits;
}

void
Interpreter::pokeMemF(std::uint64_t addr, double value)
{
    memory_.at(addr) = asBits(value);
}

std::uint64_t
Interpreter::peekMem(std::uint64_t addr) const
{
    return memory_.at(addr);
}

double
Interpreter::peekMemF(std::uint64_t addr) const
{
    return asF(memory_.at(addr));
}

double
Interpreter::peekSF(unsigned i) const
{
    return asF(sRegs_[i]);
}

double
Interpreter::peekVF(unsigned i, unsigned k) const
{
    return vRegs_.at(i).at(k);
}

std::uint64_t
Interpreter::loadWord(std::int64_t addr) const
{
    if (addr < 0 || std::uint64_t(addr) >= memory_.size()) {
        throw std::runtime_error(
            "Interpreter: load out of bounds at address " +
            std::to_string(addr));
    }
    return memory_[std::size_t(addr)];
}

void
Interpreter::storeWord(std::int64_t addr, std::uint64_t bits)
{
    if (addr < 0 || std::uint64_t(addr) >= memory_.size()) {
        throw std::runtime_error(
            "Interpreter: store out of bounds at address " +
            std::to_string(addr));
    }
    memory_[std::size_t(addr)] = bits;
}

ExecLog
Interpreter::run(std::uint64_t maxDynOps)
{
    ExecLog log;

    const auto aVal = [this](RegId r) -> std::int64_t {
        switch (classOf(r)) {
          case RegClass::A:
            return aRegs_[indexOf(r)];
          case RegClass::B:
            return bRegs_[indexOf(r)];
          default:
            throw std::runtime_error("Interpreter: A-value from S/T reg");
        }
    };
    const auto sVal = [this](RegId r) -> std::uint64_t {
        switch (classOf(r)) {
          case RegClass::S:
            return sRegs_[indexOf(r)];
          case RegClass::T:
            return tRegs_[indexOf(r)];
          default:
            throw std::runtime_error("Interpreter: S-value from A/B reg");
        }
    };

    StaticIndex pc = 0;
    std::uint64_t executed = 0;

    while (true) {
        if (pc >= program_.size())
            throw std::runtime_error("Interpreter: PC escaped program");
        if (executed >= maxDynOps)
            throw std::runtime_error("Interpreter: dynamic op limit hit");

        const Instruction &inst = program_[pc];
        if (inst.op == Op::kHalt)
            break;

        ++executed;
        bool taken = false;     // branches only
        std::uint8_t vl = 0;    // vector ops record the length they ran at

        switch (inst.op) {
          // ---- address ops ------------------------------------------
          case Op::kAConst:
            aRegs_[indexOf(inst.dst)] = inst.imm;
            break;
          case Op::kAAdd:
            aRegs_[indexOf(inst.dst)] =
                aVal(inst.srcA) + aVal(inst.srcB);
            break;
          case Op::kAAddI:
            aRegs_[indexOf(inst.dst)] = aVal(inst.srcA) + inst.imm;
            break;
          case Op::kASub:
            aRegs_[indexOf(inst.dst)] =
                aVal(inst.srcA) - aVal(inst.srcB);
            break;
          case Op::kAMul:
            aRegs_[indexOf(inst.dst)] =
                aVal(inst.srcA) * aVal(inst.srcB);
            break;
          case Op::kAMovS:
            aRegs_[indexOf(inst.dst)] = asI(sVal(inst.srcA));
            break;
          case Op::kAMovB:
            aRegs_[indexOf(inst.dst)] = bRegs_[indexOf(inst.srcA)];
            break;
          case Op::kBMovA:
            bRegs_[indexOf(inst.dst)] = aVal(inst.srcA);
            break;

          // ---- scalar integer / logical ops -------------------------
          case Op::kSConst:
            sRegs_[indexOf(inst.dst)] = fromI(inst.imm);
            break;
          case Op::kSAdd:
            sRegs_[indexOf(inst.dst)] =
                fromI(asI(sVal(inst.srcA)) + asI(sVal(inst.srcB)));
            break;
          case Op::kSSub:
            sRegs_[indexOf(inst.dst)] =
                fromI(asI(sVal(inst.srcA)) - asI(sVal(inst.srcB)));
            break;
          case Op::kSAnd:
            sRegs_[indexOf(inst.dst)] =
                sVal(inst.srcA) & sVal(inst.srcB);
            break;
          case Op::kSOr:
            sRegs_[indexOf(inst.dst)] =
                sVal(inst.srcA) | sVal(inst.srcB);
            break;
          case Op::kSXor:
            sRegs_[indexOf(inst.dst)] =
                sVal(inst.srcA) ^ sVal(inst.srcB);
            break;
          case Op::kSShL:
            sRegs_[indexOf(inst.dst)] =
                sVal(inst.srcA) << unsigned(inst.imm);
            break;
          case Op::kSShR:
            sRegs_[indexOf(inst.dst)] =
                sVal(inst.srcA) >> unsigned(inst.imm);
            break;
          case Op::kSMovS:
            sRegs_[indexOf(inst.dst)] = sVal(inst.srcA);
            break;
          case Op::kSMovA:
            sRegs_[indexOf(inst.dst)] = fromI(aVal(inst.srcA));
            break;
          case Op::kSMovT:
            sRegs_[indexOf(inst.dst)] = tRegs_[indexOf(inst.srcA)];
            break;
          case Op::kTMovS:
            tRegs_[indexOf(inst.dst)] = sVal(inst.srcA);
            break;

          // ---- floating point ---------------------------------------
          case Op::kFAdd:
            sRegs_[indexOf(inst.dst)] =
                asBits(asF(sVal(inst.srcA)) + asF(sVal(inst.srcB)));
            break;
          case Op::kFSub:
            sRegs_[indexOf(inst.dst)] =
                asBits(asF(sVal(inst.srcA)) - asF(sVal(inst.srcB)));
            break;
          case Op::kFMul:
            sRegs_[indexOf(inst.dst)] =
                asBits(asF(sVal(inst.srcA)) * asF(sVal(inst.srcB)));
            break;
          case Op::kFRecip:
            sRegs_[indexOf(inst.dst)] =
                asBits(1.0 / asF(sVal(inst.srcA)));
            break;
          case Op::kSFix:
            sRegs_[indexOf(inst.dst)] =
                fromI(std::int64_t(asF(sVal(inst.srcA))));
            break;
          case Op::kSFloat:
            sRegs_[indexOf(inst.dst)] =
                asBits(double(asI(sVal(inst.srcA))));
            break;

          // ---- memory -------------------------------------------------
          case Op::kLoadA:
            aRegs_[indexOf(inst.dst)] =
                asI(loadWord(aVal(inst.srcA) + inst.imm));
            break;
          case Op::kLoadS:
            sRegs_[indexOf(inst.dst)] =
                loadWord(aVal(inst.srcA) + inst.imm);
            break;
          case Op::kStoreA:
            storeWord(aVal(inst.srcA) + inst.imm,
                      fromI(aVal(inst.srcB)));
            break;
          case Op::kStoreS:
            storeWord(aVal(inst.srcA) + inst.imm, sVal(inst.srcB));
            break;

          // ---- vector unit (extension) ---------------------------------
          case Op::kVSetLen:
          {
              const std::int64_t requested = aVal(inst.srcA);
              if (requested < 1 ||
                  requested > std::int64_t(kVectorLength)) {
                  throw std::runtime_error(
                      "Interpreter: VL out of range: " +
                      std::to_string(requested));
              }
              vl_ = unsigned(requested);
              vl = std::uint8_t(vl_);
              break;
          }
          case Op::kVLoad:
          {
              const std::int64_t base = aVal(inst.srcA);
              auto &dst_v = vRegs_[indexOf(inst.dst)];
              for (unsigned k = 0; k < vl_; ++k) {
                  dst_v[k] = asF(loadWord(
                      base + std::int64_t(k) * inst.imm));
              }
              vl = std::uint8_t(vl_);
              break;
          }
          case Op::kVStore:
          {
              const std::int64_t base = aVal(inst.srcA);
              const auto &src_v = vRegs_[indexOf(inst.srcB)];
              for (unsigned k = 0; k < vl_; ++k) {
                  storeWord(base + std::int64_t(k) * inst.imm,
                            asBits(src_v[k]));
              }
              vl = std::uint8_t(vl_);
              break;
          }
          case Op::kVFAdd:
          case Op::kVFSub:
          case Op::kVFMul:
          {
              const auto &a = vRegs_[indexOf(inst.srcA)];
              const auto &b = vRegs_[indexOf(inst.srcB)];
              auto &dst_v = vRegs_[indexOf(inst.dst)];
              for (unsigned k = 0; k < vl_; ++k) {
                  dst_v[k] = inst.op == Op::kVFAdd ? a[k] + b[k] :
                      inst.op == Op::kVFSub ? a[k] - b[k] :
                                              a[k] * b[k];
              }
              vl = std::uint8_t(vl_);
              break;
          }
          case Op::kVFAddSV:
          case Op::kVFMulSV:
          {
              const double scalar = asF(sVal(inst.srcA));
              const auto &b = vRegs_[indexOf(inst.srcB)];
              auto &dst_v = vRegs_[indexOf(inst.dst)];
              for (unsigned k = 0; k < vl_; ++k) {
                  dst_v[k] = inst.op == Op::kVFAddSV ?
                      scalar + b[k] : scalar * b[k];
              }
              vl = std::uint8_t(vl_);
              break;
          }

          // ---- control -------------------------------------------------
          case Op::kBrAZ:
            taken = aRegs_[0] == 0;
            break;
          case Op::kBrANZ:
            taken = aRegs_[0] != 0;
            break;
          case Op::kBrAP:
            taken = aRegs_[0] >= 0;
            break;
          case Op::kBrAM:
            taken = aRegs_[0] < 0;
            break;
          case Op::kBrSZ:
            taken = sRegs_[0] == 0;
            break;
          case Op::kBrSNZ:
            taken = sRegs_[0] != 0;
            break;
          case Op::kBrSP:
            taken = asI(sRegs_[0]) >= 0;
            break;
          case Op::kBrSM:
            taken = asI(sRegs_[0]) < 0;
            break;
          case Op::kJump:
            taken = true;
            break;
          case Op::kHalt:
          case Op::kNumOps:
            break;
        }

        log.append(pc, taken, vl);
        pc = taken ? inst.target() : pc + 1;
    }

    return log;
}

} // namespace mfusim
