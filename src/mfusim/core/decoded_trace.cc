/**
 * @file
 * Trace pre-decode implementation.
 */

#include "mfusim/core/decoded_trace.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <limits>
#include <type_traits>
#include <utility>

#include "mfusim/core/error.hh"
#include "mfusim/core/registers.hh"

namespace mfusim
{

namespace
{

/** The static traits the decode needs, per opcode. */
struct OpFacts
{
    std::uint8_t fu;
    std::uint8_t flags;     //!< the opcode-determined DecodedOps bits
    std::uint8_t parcels;
    bool usesVl;            //!< occupancy is the op's vector length
    bool isLoad;
    bool isStore;
};

const std::array<OpFacts, kNumOps> &
opFacts()
{
    static const std::array<OpFacts, kNumOps> facts = [] {
        std::array<OpFacts, kNumOps> out{};
        for (unsigned o = 0; o < kNumOps; ++o) {
            const Op op = Op(o);
            const OpTraits &traits = traitsOf(op);
            OpFacts &facts = out[o];
            facts.fu = std::uint8_t(traits.fu);
            facts.parcels = traits.parcels;
            if (isBranch(op))
                facts.flags |= DecodedOps::kIsBranch;
            if (isVector(op))
                facts.flags |= DecodedOps::kIsVector;
            if (traits.fu == FuClass::kMemory)
                facts.flags |= DecodedOps::kIsMemory;
            if (traits.fu == FuClass::kTransfer)
                facts.flags |= DecodedOps::kIsTransfer;
            if (producesResult(op))
                facts.flags |= DecodedOps::kProducesResult;
            facts.usesVl = isVector(op) && op != Op::kVSetLen;
            facts.isLoad = isLoad(op);
            facts.isStore = isStore(op);
        }
        return out;
    }();
    return facts;
}

/**
 * A row but its signature id, packed into two integers: a memo check
 * is two register compares, with no row assembled in memory, and the
 * key with its static index cleared is the row's signature.  regs is
 * never 0 (occupancy is at least 1), so a zeroed key matches no op.
 */
struct RowKey
{
    std::uint64_t regs;     //!< occupancy, dst, srcA, srcB (16 b each)
    std::uint64_t code;     //!< op, fu, flags (8 b each), staticIdx << 32

    bool operator==(const RowKey &) const = default;

    static RowKey
    pack(Op op, std::uint8_t fu, std::uint8_t flags,
         std::uint16_t occupancy, RegId dst, RegId srcA, RegId srcB,
         std::uint32_t staticIdx)
    {
        return { std::uint64_t(occupancy) | std::uint64_t(dst) << 16 |
                     std::uint64_t(srcA) << 32 | std::uint64_t(srcB) << 48,
                 std::uint64_t(op) | std::uint64_t(fu) << 8 |
                     std::uint64_t(flags) << 16 |
                     std::uint64_t(staticIdx) << 32 };
    }

    /** The key of the row's signature: the static index cleared. */
    RowKey signature() const { return { regs, code & 0xffffffffu }; }

    DecodedRow
    row(std::uint32_t sig) const
    {
        DecodedRow row;
        row.staticIdx = std::uint32_t(code >> 32);
        row.sig = sig;
        row.occupancy = std::uint16_t(regs);
        row.dst = RegId(regs >> 16);
        row.srcA = RegId(regs >> 32);
        row.srcB = RegId(regs >> 48);
        row.op = Op(code & 0xff);
        row.fu = std::uint8_t(code >> 8);
        row.flags = std::uint8_t(code >> 16);
        return row;
    }
};

/**
 * Dense ids for distinct keys (RowKeys, DecodedShapes), in
 * first-insertion order: open addressing over a flat slot array, so
 * a body's interning costs a few vector growths rather than one
 * allocation per key.
 */
template <class Key>
class KeyIds
{
    static_assert(sizeof(Key) == 16 &&
                      std::has_unique_object_representations_v<Key>,
                  "a key hashes as its two 64-bit words");

  public:
    /** The id of @p key, and whether it was new. */
    std::pair<std::uint32_t, bool>
    insert(const Key &key)
    {
        if (2 * (keys_.size() + 1) > slots_.size())
            grow();
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t s = hash(key) & mask;; s = (s + 1) & mask) {
            std::uint32_t &slot = slots_[s];
            if (slot == kNone) {
                slot = std::uint32_t(keys_.size());
                keys_.push_back(key);
                return { slot, true };
            }
            if (keys_[slot] == key)
                return { slot, false };
        }
    }

    /** The distinct keys, in id order. */
    const std::vector<Key> &keys() const { return keys_; }

  private:
    static constexpr std::uint32_t kNone = 0xffffffffu;

    static std::size_t
    hash(const Key &key)
    {
        const auto words = std::bit_cast<std::array<std::uint64_t, 2>>(key);
        std::uint64_t h = words[0] ^ words[1] * 0x9e3779b97f4a7c15ull;
        h = (h ^ h >> 31) * 0xbf58476d1ce4e5b9ull;
        return std::size_t(h ^ h >> 29);
    }

    void
    grow()
    {
        std::vector<std::uint32_t> slots(
            std::max<std::size_t>(64, 2 * slots_.size()), kNone);
        const std::size_t mask = slots.size() - 1;
        for (std::uint32_t id = 0; id < keys_.size(); ++id) {
            std::size_t s = hash(keys_[id]) & mask;
            while (slots[s] != kNone)
                s = (s + 1) & mask;
            slots[s] = id;
        }
        slots_.swap(slots);
    }

    std::vector<Key> keys_;
    std::vector<std::uint32_t> slots_;
};

/**
 * The row and shape tables of one body under construction.  intern()
 * memoizes the last row and shape of each static index (direct-
 * mapped) and verifies them before any hash lookup, so an op whose
 * instruction repeats its previous row and links costs one compare.
 */
class ShapeInterner
{
  public:
    using Links = std::array<std::uint32_t, 3>;

    /**
     * The shape id of row @p key with the stored links @p prodA,
     * @p prodB and @p prevWriter, adding the row and shape if new.
     * The links come in as scalars: compared as an array built on the
     * stack, they would be reloaded wider than they were stored,
     * which stalls store forwarding on every op.
     */
    std::uint32_t
    intern(const RowKey &key, std::uint32_t prodA, std::uint32_t prodB,
           std::uint32_t prevWriter)
    {
        Memo &memo = memo_[(key.code >> 32) & (kMemoSlots - 1)];
        if (!(memo.key == key && memo.links[0] == prodA &&
              memo.links[1] == prodB && memo.links[2] == prevWriter))
            miss(memo, key, { prodA, prodB, prevWriter });
        return memo.shape;
    }

    /** The distinct rows, in id order. */
    std::vector<DecodedRow>
    rows() const
    {
        const std::vector<RowKey> &keys = rowIds_.keys();
        std::vector<DecodedRow> rows;
        rows.reserve(keys.size());
        for (std::uint32_t id = 0; id < keys.size(); ++id)
            rows.push_back(keys[id].row(rowSigs_[id]));
        return rows;
    }

    /** The distinct shapes, in id order. */
    std::vector<DecodedShape>
    shapes() const
    {
        return shapeIds_.keys();
    }

  private:
    // Covers every static index of the library's programs (at most
    // 111 instructions); a larger program only shares slots.
    static constexpr std::size_t kMemoSlots = 256;

    struct Memo
    {
        RowKey key{};
        Links links{};
        std::uint32_t row = 0;
        std::uint32_t shape = 0;
    };

    /** The memo missed: find or add the row and shape, and keep them. */
    [[gnu::noinline]] void
    miss(Memo &memo, const RowKey &key, const Links &links)
    {
        if (!(memo.key == key)) {
            const auto [row, added] = rowIds_.insert(key);
            if (added)
                rowSigs_.push_back(sigIds_.insert(key.signature()).first);
            memo.key = key;
            memo.row = row;
        }
        memo.links = links;
        memo.shape = shapeIds_.insert(DecodedShape{ memo.row, links }).first;
    }

    std::array<Memo, kMemoSlots> memo_{};
    KeyIds<RowKey> rowIds_;
    KeyIds<RowKey> sigIds_;
    KeyIds<DecodedShape> shapeIds_;
    std::vector<std::uint32_t> rowSigs_;    //!< signature id per row
};

std::atomic<std::uint64_t> g_bodies_built{ 0 };

} // namespace

template <class OpAt>
void
TraceBody::decode(std::size_t n, OpAt opAt)
{
    if (n > kMaxOps) {
        throw TraceError(
            "trace \"" + name_ + "\" has " + std::to_string(n) +
            " ops, too long for 31-bit producer links (max " +
            std::to_string(kMaxOps) + ")");
    }

    // The shape-id column is allocated at its final size; the pass
    // below is one memo compare and one store per op.
    shapeIdColumn_ = std::make_unique_for_overwrite<std::uint32_t[]>(n);
    std::uint32_t *const shapeIds = shapeIdColumn_.get();
    size_ = n;
    shapeIds_ = shapeIds;

    const std::array<OpFacts, kNumOps> &factsOf = opFacts();
    ShapeInterner interner;
    std::array<std::uint32_t, kNumRegs> lastWriter;
    lastWriter.fill(kNoProducer);

    // Per-opcode tallies, folded into TraceStats after the pass.
    std::array<std::uint64_t, kNumOps> opCount{};
    std::array<std::uint64_t, kNumOps> vlSum{};
    std::uint64_t taken = 0;
    std::uint64_t btfnCorrect = 0;

    for (std::size_t i = 0; i < n; ++i) {
        const DynOp &dyn = opAt(i);
        assert(unsigned(dyn.op) < kNumOps);
        const OpFacts &facts = factsOf[unsigned(dyn.op)];

        std::uint8_t f = facts.flags;
        if (dyn.taken)
            f |= kTaken;
        if (dyn.btfnCorrect())
            f |= kBtfnCorrect;

        const std::uint16_t occupancy =
            facts.usesVl && dyn.vl > 0 ? dyn.vl : 1;
        const auto writerOf = [&](RegId reg) {
            return storedLink(
                reg == kNoReg ? kNoProducer : lastWriter[reg],
                std::uint32_t(i));
        };
        shapeIds[i] = interner.intern(
            RowKey::pack(dyn.op, facts.fu, f, occupancy, dyn.dst,
                         dyn.srcA, dyn.srcB, dyn.staticIdx),
            writerOf(dyn.srcA), writerOf(dyn.srcB), writerOf(dyn.dst));
        if (dyn.dst != kNoReg)
            lastWriter[dyn.dst] = std::uint32_t(i);

        ++opCount[unsigned(dyn.op)];
        vlSum[unsigned(dyn.op)] += dyn.vl;
        if (f & kIsBranch) {
            taken += dyn.taken;
            btfnCorrect += (f & kBtfnCorrect) != 0;
        }
    }
    rowTable_ = interner.rows();
    rows_ = rowTable_.data();
    numRows_ = rowTable_.size();
    shapeTable_ = interner.shapes();
    shapes_ = shapeTable_.data();
    numShapes_ = shapeTable_.size();

    // Composition statistics: field-for-field the same accounting as
    // DynTrace::stats(), gathered per opcode.
    stats_.totalOps = n;
    stats_.takenBranches = taken;
    stats_.btfnCorrectBranches = btfnCorrect;
    for (unsigned o = 0; o < kNumOps; ++o) {
        const std::uint64_t count = opCount[o];
        if (count == 0)
            continue;
        const OpFacts &facts = factsOf[o];
        stats_.perFu[facts.fu] += count;
        stats_.parcels += count * facts.parcels;
        if (facts.flags & kIsVector) {
            hasVector_ = true;
            stats_.vectorOps += count;
            stats_.vectorElements += vlSum[o];
            stats_.vectorElementsPerFu[facts.fu] += vlSum[o];
            stats_.vectorOpsPerFu[facts.fu] += count;
        }
        if (facts.flags & kIsBranch)
            stats_.branches += count;
        else if (facts.isLoad)
            stats_.loads += count;
        else if (facts.isStore)
            stats_.stores += count;
    }
    g_bodies_built.fetch_add(1, std::memory_order_relaxed);
}

TraceBody::TraceBody(const DynTrace &trace) : name_(trace.name())
{
    const std::vector<DynOp> &ops = trace.ops();
    decode(ops.size(), [&ops](std::size_t i) -> const DynOp & {
        return ops[i];
    });
}

TraceBody::TraceBody(std::string name, std::span<const Instruction> code,
                     const ExecLog &log)
    : name_(std::move(name))
{
    decode(log.size(), [&](std::size_t i) { return log.op(code, i); });
}

std::uint64_t
TraceBody::bodiesBuilt()
{
    return g_bodies_built.load(std::memory_order_relaxed);
}

const std::vector<RegId> &
TraceBody::writtenRegs() const
{
    std::call_once(writtenOnce_, [&] {
        std::array<bool, kNumRegs> seen{};
        for (std::size_t i = 0; i < size_; ++i) {
            const RegId d = dst(i);
            if (d != kNoReg && !seen[d]) {
                seen[d] = true;
                written_.push_back(d);
            }
        }
    });
    return written_;
}

DecodedTrace::DecodedTrace(const DynTrace &trace,
                           const MachineConfig &cfg)
    : DecodedTrace(std::make_shared<const TraceBody>(trace), cfg)
{
}

DecodedTrace::DecodedTrace(std::shared_ptr<const TraceBody> body,
                           const MachineConfig &cfg)
    : DecodedOps(*body), body_(std::move(body))
{
    cfg.validate();
    cfg_.memLatency = cfg.memLatency;
    cfg_.branchTime = cfg.branchTime;

    std::array<std::uint16_t, kNumOps> latencyOfOp;
    for (unsigned o = 0; o < kNumOps; ++o) {
        const unsigned latency = latencyOf(Op(o), cfg_);
        assert(latency <= std::numeric_limits<std::uint16_t>::max());
        latencyOfOp[o] = std::uint16_t(latency);
    }
    latencyOfRow_ =
        std::make_unique_for_overwrite<std::uint16_t[]>(numRows_);
    for (std::size_t r = 0; r < numRows_; ++r)
        latencyOfRow_[r] = latencyOfOp[unsigned(rows_[r].op)];
}

} // namespace mfusim
