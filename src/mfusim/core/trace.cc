/**
 * @file
 * Dynamic trace expansion and statistics.
 */

#include "mfusim/core/trace.hh"

namespace mfusim
{

DynTrace::DynTrace(std::string name, std::span<const Instruction> code,
                   const ExecLog &log)
    : name_(std::move(name))
{
    ops_.reserve(log.size());
    for (std::size_t i = 0; i < log.size(); ++i)
        ops_.push_back(log.op(code, i));
}

TraceStats
DynTrace::stats() const
{
    TraceStats stats;
    stats.totalOps = ops_.size();
    for (const DynOp &op : ops_) {
        const OpTraits &traits = traitsOf(op.op);
        stats.perFu[static_cast<unsigned>(traits.fu)]++;
        stats.parcels += traits.parcels;
        if (isVector(op.op)) {
            stats.vectorOps++;
            stats.vectorElements += op.vl;
            stats.vectorElementsPerFu[static_cast<unsigned>(
                traits.fu)] += op.vl;
            stats.vectorOpsPerFu[static_cast<unsigned>(traits.fu)]++;
        }
        if (isBranch(op.op)) {
            stats.branches++;
            if (op.taken)
                stats.takenBranches++;
            if (op.btfnCorrect())
                stats.btfnCorrectBranches++;
        } else if (isLoad(op.op)) {
            stats.loads++;
        } else if (isStore(op.op)) {
            stats.stores++;
        }
    }
    return stats;
}

} // namespace mfusim
