/**
 * @file
 * Umbrella header: the complete public API of mfusim.
 *
 * mfusim is a from-scratch reproduction of Pleszkun & Sohi, "The
 * Performance Potential of Multiple Functional Unit Processors"
 * (UW-Madison CS TR #752 / ISCA 1988): a CRAY-1-like scalar ISA, a
 * macro-assembler and functional interpreter for trace generation,
 * the 14 Livermore loops as benchmark programs, a family of
 * trace-driven issue-timing simulators (serial, scoreboarded
 * single-issue, multiple-issue buffers, RUU dependency resolution),
 * dataflow/resource limit analyzers, an experiment harness that
 * regenerates every table of the paper, and a simulation-as-a-service
 * HTTP daemon (`mfusim serve`) with result caching, admission
 * control and Prometheus metrics.
 */

#ifndef MFUSIM_MFUSIM_HH
#define MFUSIM_MFUSIM_HH

#include "mfusim/codegen/assembler.hh"
#include "mfusim/codegen/interpreter.hh"
#include "mfusim/codegen/livermore.hh"
#include "mfusim/codegen/reference_kernels.hh"
#include "mfusim/codegen/synthetic.hh"
#include "mfusim/core/decoded_trace.hh"
#include "mfusim/core/error.hh"
#include "mfusim/core/faultpoint.hh"
#include "mfusim/core/instruction.hh"
#include "mfusim/core/lexical.hh"
#include "mfusim/core/machine_config.hh"
#include "mfusim/core/opcode.hh"
#include "mfusim/core/registers.hh"
#include "mfusim/core/shutdown.hh"
#include "mfusim/core/stats.hh"
#include "mfusim/core/table.hh"
#include "mfusim/core/trace.hh"
#include "mfusim/core/trace_io.hh"
#include "mfusim/core/types.hh"
#include "mfusim/dataflow/limits.hh"
#include "mfusim/dataflow/trace_analysis.hh"
#include "mfusim/funits/fu_pool.hh"
#include "mfusim/funits/functional_unit.hh"
#include "mfusim/funits/memory_port.hh"
#include "mfusim/funits/result_bus.hh"
#include "mfusim/harness/experiment.hh"
#include "mfusim/harness/paper_data.hh"
#include "mfusim/harness/spec_parse.hh"
#include "mfusim/harness/sweep.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/obs/metrics.hh"
#include "mfusim/obs/obs_sink.hh"
#include "mfusim/obs/pipe_trace.hh"
#include "mfusim/obs/run_metrics.hh"
#include "mfusim/serve/http.hh"
#include "mfusim/serve/json.hh"
#include "mfusim/serve/result_cache.hh"
#include "mfusim/serve/server.hh"
#include "mfusim/serve/sim_service.hh"
#include "mfusim/sim/audit.hh"
#include "mfusim/sim/batched.hh"
#include "mfusim/sim/cdc6600_sim.hh"
#include "mfusim/sim/multi_issue_sim.hh"
#include "mfusim/sim/ruu_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/simple_sim.hh"
#include "mfusim/sim/simulator.hh"
#include "mfusim/sim/steady_state.hh"
#include "mfusim/sim/tomasulo_sim.hh"

#endif // MFUSIM_MFUSIM_HH
