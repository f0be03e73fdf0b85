/**
 * @file
 * Trace pre-decode implementation.
 */

#include "mfusim/core/decoded_trace.hh"

#include <array>
#include <cassert>
#include <limits>

#include "mfusim/core/error.hh"
#include "mfusim/core/registers.hh"

namespace mfusim
{

DecodedTrace::DecodedTrace(const DynTrace &trace,
                           const MachineConfig &cfg)
    : name_(trace.name()), cfg_(cfg)
{
    cfg_.validate();
    const auto &ops = trace.ops();
    const std::size_t n = ops.size();
    if (n >= kNoProducer) {
        throw TraceError(
            "trace \"" + name_ + "\" has " + std::to_string(n) +
            " ops, too long for 32-bit producer links (max " +
            std::to_string(kNoProducer - 1) + ")");
    }

    op_.reserve(n);
    fu_.reserve(n);
    flags_.reserve(n);
    latency_.reserve(n);
    occupancy_.reserve(n);
    dst_.reserve(n);
    srcA_.reserve(n);
    srcB_.reserve(n);
    staticIdx_.reserve(n);
    prodA_.reserve(n);
    prodB_.reserve(n);
    prevWriter_.reserve(n);

    std::array<std::uint32_t, kNumRegs> lastWriter;
    lastWriter.fill(kNoProducer);

    stats_.totalOps = n;
    for (std::size_t i = 0; i < n; ++i) {
        const DynOp &dyn = ops[i];
        const OpTraits &traits = traitsOf(dyn.op);
        const unsigned fu_idx = unsigned(traits.fu);
        const unsigned latency = latencyOf(dyn.op, cfg);
        const unsigned occupancy = vectorOccupancy(dyn);
        assert(latency <= std::numeric_limits<std::uint16_t>::max());
        assert(occupancy <= std::numeric_limits<std::uint16_t>::max());

        std::uint8_t flags = 0;
        if (mfusim::isBranch(dyn.op))
            flags |= kIsBranch;
        if (mfusim::isVector(dyn.op))
            flags |= kIsVector;
        if (traits.fu == FuClass::kMemory)
            flags |= kIsMemory;
        if (traits.fu == FuClass::kTransfer)
            flags |= kIsTransfer;
        if (mfusim::producesResult(dyn.op))
            flags |= kProducesResult;
        if (dyn.taken)
            flags |= kTaken;
        if (dyn.btfnCorrect())
            flags |= kBtfnCorrect;

        op_.push_back(dyn.op);
        fu_.push_back(std::uint8_t(fu_idx));
        flags_.push_back(flags);
        latency_.push_back(std::uint16_t(latency));
        occupancy_.push_back(std::uint16_t(occupancy));
        dst_.push_back(dyn.dst);
        srcA_.push_back(dyn.srcA);
        srcB_.push_back(dyn.srcB);
        staticIdx_.push_back(std::uint32_t(dyn.staticIdx));

        prodA_.push_back(dyn.srcA == kNoReg ? kNoProducer
                                            : lastWriter[dyn.srcA]);
        prodB_.push_back(dyn.srcB == kNoReg ? kNoProducer
                                            : lastWriter[dyn.srcB]);
        prevWriter_.push_back(dyn.dst == kNoReg ? kNoProducer
                                                : lastWriter[dyn.dst]);
        if (dyn.dst != kNoReg)
            lastWriter[dyn.dst] = std::uint32_t(i);

        // Composition statistics, fused into the decode pass
        // (field-for-field the same accounting as DynTrace::stats()).
        stats_.perFu[fu_idx]++;
        stats_.parcels += traits.parcels;
        if (flags & kIsVector) {
            hasVector_ = true;
            stats_.vectorOps++;
            stats_.vectorElements += dyn.vl;
            stats_.vectorElementsPerFu[fu_idx] += dyn.vl;
            stats_.vectorOpsPerFu[fu_idx]++;
        }
        if (flags & kIsBranch) {
            stats_.branches++;
            if (dyn.taken)
                stats_.takenBranches++;
            if (flags & kBtfnCorrect)
                stats_.btfnCorrectBranches++;
        } else if (mfusim::isLoad(dyn.op)) {
            stats_.loads++;
        } else if (mfusim::isStore(dyn.op)) {
            stats_.stores++;
        }
    }
}

const std::vector<RegId> &
DecodedTrace::writtenRegs() const
{
    std::call_once(writtenOnce_, [&] {
        std::array<bool, kNumRegs> seen{};
        for (const RegId dst : dst_) {
            if (dst != kNoReg && !seen[dst]) {
                seen[dst] = true;
                written_.push_back(dst);
            }
        }
    });
    return written_;
}

} // namespace mfusim
