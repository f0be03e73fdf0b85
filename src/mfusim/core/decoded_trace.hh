/**
 * @file
 * Pre-decoded dynamic traces: interned static rows, per-op links.
 *
 * Every timing simulator walks its trace many times per experiment
 * (cycle loops revisit unissued instructions), and every visit used
 * to re-resolve the same static facts through traitsOf()/latencyOf():
 * functional-unit class, effective latency under the machine
 * configuration, vector occupancy, branch/store/result flags.  The
 * decode resolves all of that once and stores it in a small table of
 * distinct rows plus tightly packed per-op columns, so the
 * simulators' hot loops reduce to integer loads.
 *
 * The decode is split in two, because only the latencies depend on
 * the machine configuration:
 *
 *  - A TraceBody holds everything that is a function of the trace
 *    alone.  Each dynamic op repeats one of a few static loop-body
 *    instructions, so the static facts (opcode, unit class, flags
 *    including the branch outcome, occupancy, registers, static
 *    index) live once per distinct combination in a small row table
 *    (DecodedRow), and each op stores only its row id and its three
 *    program-order dependence links (last earlier writer of each
 *    operand and of the destination): four uint32_t columns, 16 B/op
 *    in one block of its final size.  The library's 14 bodies have
 *    12-113 rows each against thousands of ops; a replayed or fuzzed
 *    trace may have up to one row per op, which the 32-bit row id
 *    allows.  The body also holds the whole-trace composition
 *    statistics the dataflow resource limit needs, and the lazily
 *    cached periodicity analysis.
 *  - A DecodedTrace is a per-configuration view of a shared body: the
 *    body's columns plus a per-row latency table, which embeds
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
 * Rows are interned as the pass meets them: a memo of the last row
 * per static index answers almost every op with one compare, and a
 * hash lookup runs only when an instruction's row changes (a new
 * branch outcome, vector length or first visit).
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
 * Read access to the configuration-independent per-op properties of
 * a decoded trace, indexed by trace position.  Both TraceBody (which
 * owns the columns and the row table) and DecodedTrace (which views
 * a body's) derive from it, so each accessor is a row-id load and a
 * row-table load either way.
 */
class DecodedOps
{
  public:
    /** No earlier writer of the operand (or unused operand slot). */
    static constexpr std::uint32_t kNoProducer = 0xffffffffu;

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
    /** Row id of op @p i: an index below numRows(). */
    std::uint32_t rowId(std::size_t i) const { return rowIds_[i]; }
    /** The row of op @p i. */
    const DecodedRow &row(std::size_t i) const { return rows_[rowIds_[i]]; }

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
    std::uint32_t prodA(std::size_t i) const { return prodA_[i]; }
    /** Index of the last earlier writer of srcB, or kNoProducer. */
    std::uint32_t prodB(std::size_t i) const { return prodB_[i]; }
    /** Index of the last earlier writer of dst, or kNoProducer. */
    std::uint32_t
    prevWriter(std::size_t i) const
    {
        return prevWriter_[i];
    }

  protected:
    DecodedOps() = default;
    DecodedOps(const DecodedOps &) = default;
    DecodedOps &operator=(const DecodedOps &) = default;

    std::size_t size_ = 0;
    std::size_t numRows_ = 0;
    const std::uint32_t *rowIds_ = nullptr;
    const DecodedRow *rows_ = nullptr;
    const std::uint32_t *prodA_ = nullptr;
    const std::uint32_t *prodB_ = nullptr;
    const std::uint32_t *prevWriter_ = nullptr;
};

/**
 * The configuration-independent decode of one dynamic trace.
 * Non-copyable: views hold raw pointers into its columns and rows.
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

    // The four per-op columns (row id, prodA, prodB, prevWriter) in
    // one block of its final size (16 B/op), and the distinct rows.
    std::unique_ptr<std::uint32_t[]> columns_;
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
        return latencyOfRow_[rowIds_[i]];
    }

  private:
    std::shared_ptr<const TraceBody> body_;
    MachineConfig cfg_;
    std::unique_ptr<std::uint16_t[]> latencyOfRow_;
};

} // namespace mfusim

#endif // MFUSIM_CORE_DECODED_TRACE_HH
