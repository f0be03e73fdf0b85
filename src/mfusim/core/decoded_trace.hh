/**
 * @file
 * Pre-decoded dynamic traces: interned static rows and link shapes.
 *
 * Every timing simulator walks its trace many times per experiment
 * (cycle loops revisit unissued instructions), and every visit used
 * to re-resolve the same static facts through traitsOf()/latencyOf():
 * functional-unit class, effective latency under the machine
 * configuration, vector occupancy, branch/store/result flags.  The
 * decode resolves all of that once and stores it in small tables of
 * distinct rows and shapes plus one per-op column, so the
 * simulators' hot loops reduce to integer loads.
 *
 * The decode is split in two, because only the latencies depend on
 * the machine configuration:
 *
 *  - A TraceBody holds everything that is a function of the trace
 *    alone, in two interned tables and one per-op column.  Each
 *    dynamic op repeats one of a few static loop-body instructions,
 *    so the static facts (opcode, unit class, flags including the
 *    branch outcome, occupancy, registers, static index) live once
 *    per distinct combination in a row table (DecodedRow).  Each
 *    iteration of a loop also repeats the previous one's dependence
 *    structure, so an op's row and its three program-order links
 *    (last earlier writer of each operand and of the destination)
 *    are interned again as a shape (DecodedShape, 16 B): a link at
 *    most kLinkHorizon ops back is kept as its distance, which
 *    repeats every iteration, and a farther one as the producer's
 *    absolute index, which a loop invariant repeats too.  Per op the
 *    body keeps only its shape id: one uint32_t column, 4 B/op, in
 *    one block of its final size.  The library's 14 bodies have
 *    12-113 rows and 1,380 shapes in all against 81,980 ops; a
 *    replayed or fuzzed trace may have up to one row and one shape
 *    per op, which the 32-bit ids allow (a random trace costs about
 *    19 B/op that way).  The body also
 *    holds the whole-trace composition statistics the dataflow
 *    resource limit needs, and the lazily cached periodicity
 *    analysis.
 *  - A DecodedTrace is a per-configuration view of a shared body: the
 *    body's tables plus a per-row latency table, which embeds
 *    memLatency and branchTime.  latency(i) is the table entry of
 *    op i's row, so a view holds no per-op array of its own.
 *
 * A body has two sources, decoded by one per-op pass.  The trace
 * library's come straight from the interpreter: (program, ExecLog)
 * -> TraceBody, each op rebuilt from its 4-byte log entry and the
 * static instruction as the pass reads it, so no DynTrace exists on
 * the simulation path.  Replayed (loadTrace), synthetic and
 * hand-built traces are DynTraces and decode through
 * TraceBody(const DynTrace &).  The two give the same body for the
 * same run (the DecodedTrace.LogDecodeMatchesTraceDecode test).
 * Rows and shapes are interned as the pass meets them: a memo of the
 * last row and shape per static index answers almost every op with
 * one compare, and a hash lookup runs only when an instruction's row
 * or links change (a new branch outcome, vector length, producer
 * distance or first visit).
 *
 * Contract: decode once, run many.  Bodies and views are immutable
 * after construction and therefore safe to share across concurrent
 * simulator runs (see TraceLibrary::decoded() for the process-wide
 * cache, which keeps one body per loop and one view per
 * configuration).  Simulators verify that the decoded configuration
 * matches their own, because the stored latencies embed memLatency
 * and branchTime.
 */

#ifndef MFUSIM_CORE_DECODED_TRACE_HH
#define MFUSIM_CORE_DECODED_TRACE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "mfusim/core/machine_config.hh"
#include "mfusim/core/opcode.hh"
#include "mfusim/core/trace.hh"
#include "mfusim/core/types.hh"

namespace mfusim
{

struct TracePeriodicity;

/**
 * One distinct decoded instruction of a trace: every per-op property
 * but the dependence links.  Rows that differ only in staticIdx share
 * a signature id, so "same opcode, unit, flags, occupancy and
 * registers" is one integer compare (the period detector's per-op
 * test).
 */
struct DecodedRow
{
    std::uint32_t staticIdx;    //!< static instruction index
    std::uint32_t sig;          //!< signature id, dense per body
    std::uint16_t occupancy;    //!< unit-holding cycles
    RegId dst;
    RegId srcA;
    RegId srcB;
    Op op;
    std::uint8_t fu;            //!< FuClass
    std::uint8_t flags;         //!< DecodedOps::kIs* / kTaken / ...
};

/**
 * One distinct (row, dependence links) combination of a trace.  Each
 * link is stored as DecodedOps::storedLink() encodes it: a distance
 * back from the op, an absolute index, or kNoProducer.
 */
struct DecodedShape
{
    std::uint32_t row;                      //!< row id
    std::array<std::uint32_t, 3> links;     //!< prodA, prodB, prevWriter

    bool operator==(const DecodedShape &) const = default;
};

/**
 * Read access to the configuration-independent per-op properties of
 * a decoded trace, indexed by trace position.  Both TraceBody (which
 * owns the shape-id column and the shape and row tables) and
 * DecodedTrace (which views a body's) derive from it, so each
 * accessor is a shape-id load, a shape load and, for the static
 * facts, a row load either way.
 */
class DecodedOps
{
  public:
    /** No earlier writer of the operand (or unused operand slot). */
    static constexpr std::uint32_t kNoProducer = 0xffffffffu;

    /**
     * Links at most this many ops back are interned as distances,
     * farther ones as absolute indices.  A loop-carried producer sits
     * a fixed distance back every iteration, so the horizon must
     * reach past whole iterations: LL8's are 83 ops between back
     * edges, and 256 reaches three of them.  A value written once
     * before the loop (a base address, a constant) is instead a
     * distance that grows every iteration, a new shape each time,
     * but one absolute index.  Measured on the library's 14 loops
     * (81,980 ops, 557 rows): a horizon of 64 gives 1,733 shapes,
     * 128 gives 1,217, 256 gives 1,380, 1,024 gives 2,362 and 4,096
     * gives 6,091.  128 would save 2.6 KiB but reach less than two
     * of LL8's iterations.
     */
    static constexpr std::uint32_t kLinkHorizon = 256;

    // Per-op property bits returned by flags().
    static constexpr std::uint8_t kIsBranch = 1u << 0;
    static constexpr std::uint8_t kIsVector = 1u << 1;
    static constexpr std::uint8_t kIsMemory = 1u << 2;
    static constexpr std::uint8_t kIsTransfer = 1u << 3;
    static constexpr std::uint8_t kProducesResult = 1u << 4;
    static constexpr std::uint8_t kTaken = 1u << 5;
    static constexpr std::uint8_t kBtfnCorrect = 1u << 6;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Number of distinct rows (at most size()). */
    std::size_t numRows() const { return numRows_; }
    /** Number of distinct shapes (at most size(), at least numRows()). */
    std::size_t numShapes() const { return numShapes_; }
    /** Shape id of op @p i: an index below numShapes(). */
    std::uint32_t shapeId(std::size_t i) const { return shapeIds_[i]; }
    /** Row id of op @p i: an index below numRows(). */
    std::uint32_t rowId(std::size_t i) const { return shape(i).row; }
    /** The row of op @p i. */
    const DecodedRow &row(std::size_t i) const { return rows_[rowId(i)]; }

    Op op(std::size_t i) const { return row(i).op; }
    FuClass fu(std::size_t i) const { return FuClass(row(i).fu); }

    /** vectorOccupancy(): unit-holding cycles (1 for scalar ops). */
    unsigned occupancy(std::size_t i) const { return row(i).occupancy; }

    std::uint8_t flags(std::size_t i) const { return row(i).flags; }
    bool isBranch(std::size_t i) const { return flags(i) & kIsBranch; }
    bool isVector(std::size_t i) const { return flags(i) & kIsVector; }
    bool isMemory(std::size_t i) const { return flags(i) & kIsMemory; }
    bool
    isTransfer(std::size_t i) const
    {
        return flags(i) & kIsTransfer;
    }
    bool
    producesResult(std::size_t i) const
    {
        return flags(i) & kProducesResult;
    }
    bool taken(std::size_t i) const { return flags(i) & kTaken; }
    /** The static BTFN predictor gets this branch right. */
    bool
    btfnCorrect(std::size_t i) const
    {
        return flags(i) & kBtfnCorrect;
    }

    RegId dst(std::size_t i) const { return row(i).dst; }
    RegId srcA(std::size_t i) const { return row(i).srcA; }
    RegId srcB(std::size_t i) const { return row(i).srcB; }

    /** Static instruction index (branch-predictor table hashing). */
    std::uint32_t
    staticIdx(std::size_t i) const
    {
        return row(i).staticIdx;
    }

    /**
     * Signature id of op @p i: equal for two ops of one trace iff
     * their opcode, unit, flags, occupancy and registers are.
     */
    std::uint32_t signature(std::size_t i) const { return row(i).sig; }

    // ---- program-order dependence links --------------------------

    /** Index of the last earlier writer of srcA, or kNoProducer. */
    std::uint32_t prodA(std::size_t i) const { return link(i, 0); }
    /** Index of the last earlier writer of srcB, or kNoProducer. */
    std::uint32_t prodB(std::size_t i) const { return link(i, 1); }
    /** Index of the last earlier writer of dst, or kNoProducer. */
    std::uint32_t prevWriter(std::size_t i) const { return link(i, 2); }

  protected:
    DecodedOps() = default;
    DecodedOps(const DecodedOps &) = default;
    DecodedOps &operator=(const DecodedOps &) = default;

    /**
     * The flag of a distance link.  Absolute indices stay below it,
     * so a body holds at most kMaxOps ops.
     */
    static constexpr std::uint32_t kRelativeLink = 0x80000000u;
    static constexpr std::size_t kMaxOps = kRelativeLink - 1;

    /**
     * Producer @p producer of op @p i as a shape stores it: a distance
     * d, 1 <= d <= kLinkHorizon, as kRelativeLink + d; an absolute
     * index or kNoProducer as itself.
     */
    static std::uint32_t
    storedLink(std::uint32_t producer, std::uint32_t i)
    {
        if (producer == kNoProducer)
            return producer;
        const std::uint32_t distance = i - producer;
        return distance <= kLinkHorizon ? kRelativeLink + distance
                                        : producer;
    }

    const DecodedShape &
    shape(std::size_t i) const
    {
        return shapes_[shapeIds_[i]];
    }

    /** Link @p k of op @p i as a producer index (or kNoProducer). */
    std::uint32_t
    link(std::size_t i, unsigned k) const
    {
        const std::uint32_t stored = shape(i).links[k];
        const std::uint32_t distance = stored - kRelativeLink;
        return distance - 1 < kLinkHorizon
            ? std::uint32_t(i) - distance : stored;
    }

    std::size_t size_ = 0;
    std::size_t numRows_ = 0;
    std::size_t numShapes_ = 0;
    const std::uint32_t *shapeIds_ = nullptr;
    const DecodedShape *shapes_ = nullptr;
    const DecodedRow *rows_ = nullptr;
};

/**
 * The configuration-independent decode of one dynamic trace.
 * Non-copyable: views hold raw pointers into its column and tables.
 */
class TraceBody : public DecodedOps
{
  public:
    /** Decode @p trace: replayed, synthetic and hand-built traces. */
    explicit TraceBody(const DynTrace &trace);

    /**
     * Decode the run @p log recorded from @p code, named @p name.
     * The same per-op pass as decoding DynTrace(name, code, log),
     * with each op rebuilt from the log as it is read, so the
     * DynTrace is never built.
     */
    TraceBody(std::string name, std::span<const Instruction> code,
              const ExecLog &log);

    TraceBody(const TraceBody &) = delete;
    TraceBody &operator=(const TraceBody &) = delete;

    const std::string &name() const { return name_; }

    /** True if any op is a vector-unit instruction. */
    bool hasVector() const { return hasVector_; }

    /** Composition statistics (same values as DynTrace::stats()). */
    const TraceStats &stats() const { return stats_; }

    /**
     * Periodic-structure analysis of this trace (see
     * dataflow/period_detector.hh), computed lazily on first use and
     * cached for the life of the body, so every configuration view
     * shares one analysis.  Thread safe; the steady-state fast path
     * of every simulator starts here.
     */
    const TracePeriodicity &periodicity() const;

    /**
     * The distinct destination registers this trace ever writes, in
     * first-write order.  Computed lazily and cached: the steady-
     * state fast path scans this list at every iteration boundary
     * instead of all kNumRegs (or all ops) per run.  Thread safe.
     */
    const std::vector<RegId> &writtenRegs() const;

    /**
     * Bodies constructed and periodicity analyses run in this
     * process so far (the tests pin that views share both).
     */
    static std::uint64_t bodiesBuilt();
    static std::uint64_t periodAnalyses();

  private:
    std::string name_;
    TraceStats stats_;
    bool hasVector_ = false;

    /** The decode pass: @p opAt(i) is op i of n, as a DynOp. */
    template <class OpAt>
    void decode(std::size_t n, OpAt opAt);

    // The one per-op column, the shape id (4 B/op), in one block of
    // its final size; the distinct shapes (16 B each) and rows (20 B
    // each), each in a vector of its exact size.
    std::unique_ptr<std::uint32_t[]> shapeIdColumn_;
    std::vector<DecodedShape> shapeTable_;
    std::vector<DecodedRow> rowTable_;

    // Lazy periodicity cache (built in period_detector.cc, where
    // TracePeriodicity is complete; shared_ptr type-erases the
    // deleter so this header needs only the forward declaration).
    mutable std::once_flag periodicityOnce_;
    mutable std::shared_ptr<const TracePeriodicity> periodicity_;

    mutable std::once_flag writtenOnce_;
    mutable std::vector<RegId> written_;
};

/**
 * One dynamic trace with all per-op static properties resolved for
 * one machine configuration: a shared TraceBody plus the latency of
 * each of its rows under that configuration.
 */
class DecodedTrace : public DecodedOps
{
  public:
    /** Decode @p trace under @p cfg, into a body of its own. */
    DecodedTrace(const DynTrace &trace, const MachineConfig &cfg);

    /** View @p body under @p cfg (fills the per-row table). */
    DecodedTrace(std::shared_ptr<const TraceBody> body,
                 const MachineConfig &cfg);

    DecodedTrace(const DecodedTrace &) = delete;
    DecodedTrace &operator=(const DecodedTrace &) = delete;

    /**
     * The configuration the latencies were decoded for.  Only
     * memLatency and branchTime shape a decode, so the predictor is
     * always disarmed here, whatever the caller's configuration.
     */
    const MachineConfig &config() const { return cfg_; }

    /** The configuration-independent part, shared between views. */
    const TraceBody &body() const { return *body_; }

    const std::string &name() const { return body_->name(); }
    bool hasVector() const { return body_->hasVector(); }
    const TraceStats &stats() const { return body_->stats(); }
    const TracePeriodicity &
    periodicity() const
    {
        return body_->periodicity();
    }
    const std::vector<RegId> &
    writtenRegs() const
    {
        return body_->writtenRegs();
    }

    /** Effective latency: latencyOf(op(i), config()). */
    unsigned
    latency(std::size_t i) const
    {
        return latencyOfRow_[rowId(i)];
    }

  private:
    std::shared_ptr<const TraceBody> body_;
    MachineConfig cfg_;
    std::unique_ptr<std::uint16_t[]> latencyOfRow_;
};

} // namespace mfusim

#endif // MFUSIM_CORE_DECODED_TRACE_HH
