/**
 * @file
 * Trace pre-decode implementation.
 */

#include "mfusim/core/decoded_trace.hh"

#include <array>
#include <atomic>
#include <cassert>
#include <limits>
#include <utility>

#include "mfusim/core/error.hh"
#include "mfusim/core/registers.hh"

namespace mfusim
{

namespace
{

/** The static traits the decode needs, per opcode. */
struct OpRow
{
    std::uint8_t fu;
    std::uint8_t flags;     //!< the opcode-determined DecodedOps bits
    std::uint8_t parcels;
    bool usesVl;            //!< occupancy is the op's vector length
    bool isLoad;
    bool isStore;
};

const std::array<OpRow, kNumOps> &
opRows()
{
    static const std::array<OpRow, kNumOps> rows = [] {
        std::array<OpRow, kNumOps> out{};
        for (unsigned o = 0; o < kNumOps; ++o) {
            const Op op = Op(o);
            const OpTraits &traits = traitsOf(op);
            OpRow &row = out[o];
            row.fu = std::uint8_t(traits.fu);
            row.parcels = traits.parcels;
            if (isBranch(op))
                row.flags |= DecodedOps::kIsBranch;
            if (isVector(op))
                row.flags |= DecodedOps::kIsVector;
            if (traits.fu == FuClass::kMemory)
                row.flags |= DecodedOps::kIsMemory;
            if (traits.fu == FuClass::kTransfer)
                row.flags |= DecodedOps::kIsTransfer;
            if (producesResult(op))
                row.flags |= DecodedOps::kProducesResult;
            row.usesVl = isVector(op) && op != Op::kVSetLen;
            row.isLoad = isLoad(op);
            row.isStore = isStore(op);
        }
        return out;
    }();
    return rows;
}

/** The next @p n-element column of a block, advancing @p next. */
template <class T>
T *
carve(std::byte *&next, std::size_t n)
{
    T *const column = reinterpret_cast<T *>(next);
    next += n * sizeof(T);
    return column;
}

std::atomic<std::uint64_t> g_bodies_built{ 0 };

} // namespace

template <class OpAt>
void
TraceBody::decode(std::size_t n, OpAt opAt)
{
    if (n >= kNoProducer) {
        throw TraceError(
            "trace \"" + name_ + "\" has " + std::to_string(n) +
            " ops, too long for 32-bit producer links (max " +
            std::to_string(kNoProducer - 1) + ")");
    }

    // Carve every column out of one block, widest element type first
    // so each column starts aligned, and fill them through raw
    // pointers: the pass below is one row-table lookup and a dozen
    // stores per op.
    constexpr std::size_t kBytesPerOp = 4 * sizeof(std::uint32_t) +
        sizeof(std::uint16_t) + 3 * sizeof(RegId) + sizeof(Op) +
        2 * sizeof(std::uint8_t);
    columns_ = std::make_unique_for_overwrite<std::byte[]>(
        n * kBytesPerOp);
    std::byte *next = columns_.get();
    std::uint32_t *const staticIdx = carve<std::uint32_t>(next, n);
    std::uint32_t *const prodA = carve<std::uint32_t>(next, n);
    std::uint32_t *const prodB = carve<std::uint32_t>(next, n);
    std::uint32_t *const prevWriter = carve<std::uint32_t>(next, n);
    std::uint16_t *const occupancy = carve<std::uint16_t>(next, n);
    RegId *const dst = carve<RegId>(next, n);
    RegId *const srcA = carve<RegId>(next, n);
    RegId *const srcB = carve<RegId>(next, n);
    Op *const opArr = carve<Op>(next, n);
    std::uint8_t *const fu = carve<std::uint8_t>(next, n);
    std::uint8_t *const flags = carve<std::uint8_t>(next, n);
    assert(next == columns_.get() + n * kBytesPerOp);
    size_ = n;
    op_ = opArr;
    fu_ = fu;
    flags_ = flags;
    occupancy_ = occupancy;
    dst_ = dst;
    srcA_ = srcA;
    srcB_ = srcB;
    staticIdx_ = staticIdx;
    prodA_ = prodA;
    prodB_ = prodB;
    prevWriter_ = prevWriter;

    const std::array<OpRow, kNumOps> &rows = opRows();
    std::array<std::uint32_t, kNumRegs> lastWriter;
    lastWriter.fill(kNoProducer);

    // Per-opcode tallies, folded into TraceStats after the pass.
    std::array<std::uint64_t, kNumOps> opCount{};
    std::array<std::uint64_t, kNumOps> vlSum{};
    std::uint64_t taken = 0;
    std::uint64_t btfnCorrect = 0;

    for (std::size_t i = 0; i < n; ++i) {
        const DynOp &dyn = opAt(i);
        assert(unsigned(dyn.op) < kNumOps);
        const OpRow &row = rows[unsigned(dyn.op)];

        std::uint8_t f = row.flags;
        if (dyn.taken)
            f |= kTaken;
        if (dyn.btfnCorrect())
            f |= kBtfnCorrect;

        opArr[i] = dyn.op;
        fu[i] = row.fu;
        flags[i] = f;
        occupancy[i] = row.usesVl && dyn.vl > 0 ? dyn.vl : 1;
        dst[i] = dyn.dst;
        srcA[i] = dyn.srcA;
        srcB[i] = dyn.srcB;
        staticIdx[i] = std::uint32_t(dyn.staticIdx);

        prodA[i] = dyn.srcA == kNoReg ? kNoProducer : lastWriter[dyn.srcA];
        prodB[i] = dyn.srcB == kNoReg ? kNoProducer : lastWriter[dyn.srcB];
        prevWriter[i] =
            dyn.dst == kNoReg ? kNoProducer : lastWriter[dyn.dst];
        if (dyn.dst != kNoReg)
            lastWriter[dyn.dst] = std::uint32_t(i);

        ++opCount[unsigned(dyn.op)];
        vlSum[unsigned(dyn.op)] += dyn.vl;
        if (f & kIsBranch) {
            taken += dyn.taken;
            btfnCorrect += (f & kBtfnCorrect) != 0;
        }
    }

    // Composition statistics: field-for-field the same accounting as
    // DynTrace::stats(), gathered per opcode.
    stats_.totalOps = n;
    stats_.takenBranches = taken;
    stats_.btfnCorrectBranches = btfnCorrect;
    for (unsigned o = 0; o < kNumOps; ++o) {
        const std::uint64_t count = opCount[o];
        if (count == 0)
            continue;
        const OpRow &row = rows[o];
        stats_.perFu[row.fu] += count;
        stats_.parcels += count * row.parcels;
        if (row.flags & kIsVector) {
            hasVector_ = true;
            stats_.vectorOps += count;
            stats_.vectorElements += vlSum[o];
            stats_.vectorElementsPerFu[row.fu] += vlSum[o];
            stats_.vectorOpsPerFu[row.fu] += count;
        }
        if (row.flags & kIsBranch)
            stats_.branches += count;
        else if (row.isLoad)
            stats_.loads += count;
        else if (row.isStore)
            stats_.stores += count;
    }
    g_bodies_built.fetch_add(1, std::memory_order_relaxed);
}

TraceBody::TraceBody(const DynTrace &trace) : name_(trace.name())
{
    const std::vector<DynOp> &ops = trace.ops();
    decode(ops.size(), [&ops](std::size_t i) -> const DynOp & {
        return ops[i];
    });
}

TraceBody::TraceBody(std::string name, std::span<const Instruction> code,
                     const ExecLog &log)
    : name_(std::move(name))
{
    decode(log.size(), [&](std::size_t i) { return log.op(code, i); });
}

std::uint64_t
TraceBody::bodiesBuilt()
{
    return g_bodies_built.load(std::memory_order_relaxed);
}

const std::vector<RegId> &
TraceBody::writtenRegs() const
{
    std::call_once(writtenOnce_, [&] {
        std::array<bool, kNumRegs> seen{};
        for (std::size_t i = 0; i < size_; ++i) {
            const RegId d = dst_[i];
            if (d != kNoReg && !seen[d]) {
                seen[d] = true;
                written_.push_back(d);
            }
        }
    });
    return written_;
}

DecodedTrace::DecodedTrace(const DynTrace &trace,
                           const MachineConfig &cfg)
    : DecodedTrace(std::make_shared<const TraceBody>(trace), cfg)
{
}

DecodedTrace::DecodedTrace(std::shared_ptr<const TraceBody> body,
                           const MachineConfig &cfg)
    : DecodedOps(*body), body_(std::move(body))
{
    cfg.validate();
    cfg_.memLatency = cfg.memLatency;
    cfg_.branchTime = cfg.branchTime;

    for (unsigned o = 0; o < kNumOps; ++o) {
        const unsigned latency = latencyOf(Op(o), cfg_);
        assert(latency <= std::numeric_limits<std::uint16_t>::max());
        latencyOfOp_[o] = std::uint16_t(latency);
    }
}

} // namespace mfusim
