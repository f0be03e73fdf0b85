/**
 * @file
 * Table 8s (extension): RUU dependency resolution (w=4, RUU=50)
 * under branch speculation, vectorizable loops as scalar code.  The
 * speculative counterpart of Table 8's (4 units, RUU 50) cell: once
 * the RUU resolves data dependencies in hardware, control is the
 * last wall, so this machine gains the most from prediction.
 */

#include <memory>

#include "mfusim/sim/ruu_sim.hh"
#include "speculation_table.hh"

int
main()
{
    using namespace mfusim;
    return bench::runSpeculationTable(
        "Table 8s: RUU (w=4, size=50) under speculation, "
        "vectorizable loops",
        LoopClass::kVectorizable,
        [](const MachineConfig &c) -> std::unique_ptr<Simulator> {
            return std::make_unique<RuuSim>(
                RuuConfig{ 4, 50, BusKind::kPerUnit }, c);
        });
}
