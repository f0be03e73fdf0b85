/**
 * @file
 * Trace structure analysis: why a trace achieves the issue rate it
 * does.
 *
 * The paper's argument rests on properties of the dynamic
 * instruction stream — "It is rare that 2 consecutive instructions
 * are independent and can issue simultaneously", branch density, the
 * width of the dataflow graph.  This module measures those
 * properties directly so the issue-rate results can be explained,
 * not just reported.
 *
 * Every analyzer reads a decoded trace: the decode's dependence links
 * and flags (DecodedOps) where no latency is involved, and a
 * DecodedTrace where the analysis schedules the trace.  The width
 * profile and the buffering demand both read the pseudo-dataflow
 * schedule of walkPseudoDataflow() (limits.hh), so they measure the
 * very schedule whose length is the pseudo-dataflow limit, vector
 * element streaming and chaining included.
 */

#ifndef MFUSIM_DATAFLOW_TRACE_ANALYSIS_HH
#define MFUSIM_DATAFLOW_TRACE_ANALYSIS_HH

#include <array>
#include <cstdint>
#include <string>

#include "mfusim/core/decoded_trace.hh"

namespace mfusim
{

/**
 * Distribution of register dependence distances: for every source
 * operand with an in-trace producer, the number of dynamic
 * instructions between producer and consumer.
 */
struct DependenceStats
{
    /** Bucket for distances 1..15; histogram[0] = distance 1. */
    static constexpr unsigned kBuckets = 15;
    std::array<std::uint64_t, kBuckets> histogram{};
    std::uint64_t longer = 0;       //!< distances >= 16
    std::uint64_t totalDeps = 0;
    double meanDistance = 0.0;

    /**
     * Fraction of dependences with distance 1 — consecutive
     * dependent instructions, the case the paper highlights as the
     * issue-rate killer.
     */
    double
    adjacentFraction() const
    {
        return totalDeps == 0 ?
            0.0 : double(histogram[0]) / double(totalDeps);
    }
};

/** Compute register (RAW) dependence distances over @p trace. */
DependenceStats dependenceDistances(const DecodedOps &trace);

/** Dynamic basic-block structure (runs between branches). */
struct BasicBlockStats
{
    std::uint64_t blocks = 0;
    std::uint64_t totalOps = 0;
    std::uint64_t maxLength = 0;

    double
    meanLength() const
    {
        return blocks == 0 ? 0.0 : double(totalOps) / double(blocks);
    }
};

/** Measure dynamic basic blocks of @p trace. */
BasicBlockStats basicBlocks(const DecodedOps &trace);

/**
 * Width profile of the branch-gated dataflow graph: how many
 * instructions start in each cycle of the pseudo-dataflow schedule.
 * levels is the limit's pseudoCycles, so meanWidth is its pseudoRate.
 */
struct WidthProfile
{
    std::uint64_t levels = 0;       //!< critical path length (cycles)
    double meanWidth = 0.0;         //!< ops / levels
    std::uint64_t peakWidth = 0;    //!< max ops starting in one cycle
    /** Fraction of cycles in which at least one op starts. */
    double activeFraction = 0.0;
};

/** Compute the dataflow width profile of @p trace. */
WidthProfile widthProfile(const DecodedTrace &trace);

/**
 * Buffering the pseudo-dataflow limit implicitly assumes.
 *
 * Table 2's "Pure" limits assume "an unlimited amount of buffer
 * storage is available to store temporary or intermediate results".
 * This measures how much that really is: scheduling the trace at its
 * pseudo-dataflow times, a value is buffered from the cycle its
 * consumers can first read it (a vector's first chained element)
 * until its last consumer has started; the peak count of
 * simultaneously buffered values approximates the reservation
 * station / RUU capacity needed to reach the limit — directly
 * comparable with the RUU-size saturation points of Tables 7/8.
 */
struct BufferDemand
{
    std::uint64_t peakLiveValues = 0;
    double meanLiveValues = 0.0;
};

/** Measure the dataflow schedule's buffering demand. */
BufferDemand bufferDemand(const DecodedTrace &trace);

/**
 * Multi-line human-readable analysis of @p trace, under the
 * configuration it was decoded for.
 */
std::string analyzeTrace(const DecodedTrace &trace);

} // namespace mfusim

#endif // MFUSIM_DATAFLOW_TRACE_ANALYSIS_HH
