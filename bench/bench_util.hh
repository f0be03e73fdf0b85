/**
 * @file
 * Shared helpers for the table-reproduction bench binaries.
 *
 * Every bench prints one of the paper's tables with three values per
 * cell where the paper published a number: the measured issue rate,
 * the paper's value in brackets, and (in the summary line) the mean
 * measured/paper ratio.  Absolute rates are not expected to match
 * (mfusim's hand-compiled kernels are not CFT's output); the shape
 * -- orderings, saturation points, sensitivities -- is the
 * reproduction target.  See EXPERIMENTS.md.
 *
 * A typed mfusim error that escapes a bench's main() (a malformed
 * MFUSIM_JOBS, say) ends the process the way the CLI ends it: the
 * message on stderr and Error::exitCode(), 3 for a ConfigError.
 */

#ifndef MFUSIM_BENCH_BENCH_UTIL_HH
#define MFUSIM_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "mfusim/core/error.hh"
#include "mfusim/core/table.hh"

namespace mfusim
{
namespace bench
{

/** "0.44 [0.59]": measured with the paper value in brackets. */
inline std::string
cell(double measured, double paper)
{
    return AsciiTable::num(measured) + " [" + AsciiTable::num(paper) +
        "]";
}

/** Tracks measured/paper ratios to summarize calibration. */
class RatioTracker
{
  public:
    void
    add(double measured, double paper)
    {
        if (paper > 0.0) {
            sum_ += measured / paper;
            ++count_;
        }
    }

    double
    mean() const
    {
        return count_ == 0 ? 0.0 : sum_ / double(count_);
    }

    void
    printSummary(const char *what) const
    {
        std::printf(
            "\nMean measured/paper ratio for %s: %.2f\n"
            "(absolute scale differs -- different compiler, same "
            "model; see EXPERIMENTS.md)\n",
            what, mean());
    }

  private:
    double sum_ = 0.0;
    std::size_t count_ = 0;
};

/**
 * The terminate handler of every bench binary: exit with an uncaught
 * mfusim::Error's code instead of aborting (exit 134), after flushing
 * the rows already printed.  Any other exception is left to the
 * handler it replaced.
 */
[[noreturn]] void exitOnUncaughtError();

/** The handler exitOnUncaughtError() replaced, set before main(). */
inline const std::terminate_handler previousTerminate =
    std::set_terminate(exitOnUncaughtError);

inline void
exitOnUncaughtError()
{
    try {
        if (const std::exception_ptr error = std::current_exception())
            std::rethrow_exception(error);
    } catch (const Error &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "%s\n", e.what());
        std::_Exit(e.exitCode());
    } catch (...) {
    }
    if (previousTerminate != nullptr)
        previousTerminate();
    std::abort();
}

} // namespace bench
} // namespace mfusim

#endif // MFUSIM_BENCH_BENCH_UTIL_HH
