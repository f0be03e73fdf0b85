/**
 * @file
 * Dynamic trace statistics.
 */

#include "mfusim/core/trace.hh"


namespace mfusim
{

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
