/**
 * @file
 * Textual spec parsing shared by the CLI and the serve daemon.
 *
 * The grammar is the CLI's:
 *
 *   config   M11BR5 | M11BR2 | M5BR5 | M5BR2
 *   loop     <id> | <id>x<factor> | <id>v        (e.g. 5, 1x4, 7v)
 *            digits only; "05" is canonically "5", "01x04" "1x4"
 *   machine  simple | serialmem | nonseg | cray | cdc |
 *            tomasulo[:<rs>[:<cdb>]] | seq:<w> | ooo:<w> |
 *            ruu:<w>:<size>
 *            with at most one bus option, ",1bus" or ",xbar" (seq,
 *            ooo, ruu and cdc only), and at most one branch model:
 *            ",pred=<predictor>" (see PredictorSpec::parse) or one of
 *            its aliases ",btfn" (= ",pred=btfn:w0") and ",oracle"
 *            (= ",pred=perfect"), in any order, e.g.
 *            "ruu:4:50,1bus,oracle"
 *
 * Unlike the original CLI helpers these functions never exit the
 * process — bad input throws ConfigError, so a long-lived daemon can
 * map it to a 400 and keep serving.  The CLI wraps them to keep its
 * historical exit codes.
 */

#ifndef MFUSIM_HARNESS_SPEC_PARSE_HH
#define MFUSIM_HARNESS_SPEC_PARSE_HH

#include <memory>
#include <string>
#include <string_view>

#include "mfusim/codegen/livermore.hh"
#include "mfusim/core/decoded_trace.hh"
#include "mfusim/core/error.hh"
#include "mfusim/core/machine_config.hh"
#include "mfusim/sim/simulator.hh"

namespace mfusim
{

/**
 * A machine spec names a branch model it may not carry: two of them,
 * one on top of a predictor the caller already armed, or one on the
 * "simple" machine.  A ConfigError, so the daemon answers 400; the
 * CLI exits 3 for it where malformed specs exit 2.
 */
class BranchModelError : public ConfigError
{
  public:
    using ConfigError::ConfigError;
};

/**
 * Named standard configuration.
 * @throws ConfigError on an unknown name.
 */
MachineConfig parseConfigSpec(const std::string &name);

/** A Livermore loop, plain, unrolled or vectorized. */
struct LoopSpec
{
    int id = 0;             //!< Livermore loop, 1..14
    int unroll = 0;         //!< factor of "<id>x<factor>", else 0
    bool vectorized = false;    //!< "<id>v"
    std::string name;       //!< canonical spelling: "5", "1x4", "7v"

    /** A plain loop, whose body the TraceLibrary holds. */
    bool isLibrary() const { return unroll == 0 && !vectorized; }
};

/**
 * "5" -> loop 5; "1x4" -> loop 1 unrolled by 4; "7v" -> loop 7
 * compiled for the vector unit.  Trace names ("LL" + name) and cache
 * keys use the canonical name.
 * @throws ConfigError on anything else, or a variant the loop lacks.
 */
LoopSpec parseLoopSpec(std::string_view text);

/** The loop's kernel, assembled with its reference expectations. */
Kernel buildLoopKernel(const LoopSpec &loop);

/**
 * Build the loop's kernel, execute it against the reference model
 * and return its validated dynamic trace, named "LL" + loop.name.
 * @throws Error if the kernel's results disagree with the reference
 *         model.
 */
DynTrace traceForLoopSpec(const LoopSpec &loop);

/**
 * The decode of the loop's trace, straight from its validated
 * execution log: equal to TraceBody(traceForLoopSpec(loop)), without
 * building the trace.  TraceLibrary::body() builds the 14 loops'
 * bodies this way.
 * @throws as traceForLoopSpec().
 */
std::shared_ptr<const TraceBody> bodyForLoopSpec(const LoopSpec &loop);

/**
 * Instantiate a simulator from a machine spec string.  A branch
 * model in the spec arms a predictor on the simulator's copy of
 * @p cfg.
 * @throws BranchModelError on a branch model the machine may not
 *         carry; ConfigError on an unknown machine / option, an
 *         empty or repeated option, a field or bus option the
 *         machine does not read, or a numeric field that is not
 *         plain decimal digits within the parser's size bound.
 */
std::unique_ptr<Simulator> parseMachineSpec(const std::string &spec,
                                            const MachineConfig &cfg);

} // namespace mfusim

#endif // MFUSIM_HARNESS_SPEC_PARSE_HH
