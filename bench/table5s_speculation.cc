/**
 * @file
 * Table 5s (extension): out-of-order multiple issue (w=4, N-Bus)
 * under branch speculation, scalar loops.  The speculative
 * counterpart of Table 5's w=4 row: the same machine swept over the
 * predictor-quality axis instead of the station count.
 */

#include <memory>

#include "mfusim/sim/multi_issue_sim.hh"
#include "speculation_table.hh"

int
main()
{
    using namespace mfusim;
    return bench::runSpeculationTable(
        "Table 5s: OOO issue (w=4, N-Bus) under speculation, "
        "scalar loops",
        LoopClass::kScalar,
        [](const MachineConfig &c) -> std::unique_ptr<Simulator> {
            return std::make_unique<MultiIssueSim>(
                MultiIssueConfig{ 4, true, BusKind::kPerUnit }, c);
        });
}
