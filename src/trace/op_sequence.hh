/**
 * @file
 * Packed storage for a dynamic instruction stream.
 *
 * ESP pre-executes upcoming events from their recorded streams, so
 * every event's ops stay resident for the whole run and their storage
 * dominates the process footprint. OpSequence therefore keeps each op
 * in one 12-byte record instead of a 24-byte MicroOp:
 *
 *  - bytes 0-3: the 32-bit pc;
 *  - byte 4: the op type in bits 0-3, payload bits 32-34 in bits 4-6
 *    and the taken flag in bit 7;
 *  - bytes 5-7: the srcA, srcB and dest register ids;
 *  - bytes 8-11: payload bits 0-31.
 *
 * The 35-bit payload is the memory address of a load or store, the
 * zero-extended 32-bit branch target of a control op, and 0 for every
 * other op.
 *
 * push_back() panics on an op the record cannot hold: a pc at or
 * above 2^32, a memory address at or above 2^35, a memory address on
 * a non-memory op, or a branch target on a non-control op. The
 * generator's data layout fits (see `layout` in generator.hh).
 * MicroOp remains the exchange currency: operator[] rebuilds one by
 * value, and const-reference bindings at call sites keep working
 * through lifetime extension. Bytes 4-7 sit in the same order as
 * MicroOp's last four bytes (a static_assert checks it), so the
 * rebuild moves them as one masked 32-bit word.
 */

#ifndef ESPSIM_TRACE_OP_SEQUENCE_HH
#define ESPSIM_TRACE_OP_SEQUENCE_HH

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <vector>

#include "common/logging.hh"
#include "trace/micro_op.hh"

namespace espsim
{

/** Packed container of MicroOps with vector-like surface. */
class OpSequence
{
  public:
    OpSequence() = default;

    OpSequence(std::initializer_list<MicroOp> ops)
    {
        reserve(ops.size());
        for (const MicroOp &op : ops)
            push_back(op);
    }

    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }
    void reserve(std::size_t n) { records_.reserve(n); }
    void clear() { records_.clear(); }

    /** Memory addresses must stay below this to be packed. */
    static constexpr Addr dataAddrLimit = Addr{1} << 35;

    /** True if the packed record can hold @p op: a 32-bit pc, a
     *  memory address below dataAddrLimit and only on a load or
     *  store, and a branch target only on a control op. */
    static bool
    holds(const MicroOp &op)
    {
        return !(op.pc >> 32) && op.memAddr < dataAddrLimit &&
            (!op.memAddr || op.isMemoryOp()) &&
            (!op.target32_ || op.isBranchOp());
    }

    /** Append @p op; panics if the packed record cannot hold it. */
    void
    push_back(const MicroOp &op)
    {
        if (!holds(op))
            rejectUnpackable(op);
        records_.push_back(pack(op));
    }

    /** Rebuild the op at @p i by value. */
    MicroOp
    operator[](std::size_t i) const
    {
        assert(i < size());
        return unpack(records_[i]);
    }

    /** Input iterator yielding MicroOps by value (range-for support;
     *  `const MicroOp &` bindings live through lifetime extension). */
    class const_iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = MicroOp;
        using difference_type = std::ptrdiff_t;
        using pointer = const MicroOp *;
        using reference = MicroOp;

        const_iterator(const OpSequence *seq, std::size_t i)
            : seq_(seq), i_(i)
        {
        }

        MicroOp operator*() const { return (*seq_)[i_]; }

        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }

        bool
        operator==(const const_iterator &other) const
        {
            return i_ == other.i_;
        }

        bool
        operator!=(const const_iterator &other) const
        {
            return i_ != other.i_;
        }

      private:
        const OpSequence *seq_;
        std::size_t i_;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size()}; }

  private:
    /** Bytes 4-7 of a record, in order: the type byte, srcA, srcB and
     *  dest. */
    using RegBytes = std::array<std::uint8_t, 4>;

    /** One op; the field map is in the file comment. */
    struct Record
    {
        std::uint32_t pc;
        std::uint32_t regs; //!< a RegBytes
        std::uint32_t payloadLow;
    };

    static_assert(sizeof(Record) == 12, "an op must pack into 12 bytes");
    static_assert(static_cast<unsigned>(OpType::Return) < 16,
                  "the op type must fit in bits 0-3 of the type byte");

    /** The op type, in bits 0-3 of the type byte. */
    static constexpr std::uint8_t typeBits = 0x0f;
    /** Payload bits 32-34, in bits 4-6 of the type byte. */
    static constexpr std::uint8_t payloadHighBits = 0x70;
    /** Record::regs without the payload bits. */
    static constexpr std::uint32_t regsMask =
        ~std::bit_cast<std::uint32_t>(RegBytes{payloadHighBits, 0, 0, 0});

    /** A MicroOp's 24 bytes. */
    struct OpImage
    {
        std::uint64_t pc;
        std::uint64_t memAddr;
        std::uint32_t target32;
        std::uint32_t regs;
    };

    // MicroOp ends in RegBytes' order, so unpack()'s four byte stores
    // compile to one 32-bit store of the masked word.
    static_assert(
        [] {
            MicroOp op;
            op.pc = 1;
            op.memAddr = 2;
            op.target32_ = 3;
            op.typeTaken_ = 4;
            op.srcA = 5;
            op.srcB = 6;
            op.dest = 7;
            const OpImage image = std::bit_cast<OpImage>(op);
            return image.pc == 1 && image.memAddr == 2 &&
                image.target32 == 3 &&
                image.regs == std::bit_cast<std::uint32_t>(
                                  RegBytes{4, 5, 6, 7});
        }(),
        "MicroOp must end in typeTaken_, srcA, srcB, dest, in a "
        "record's order, for the one-word decode");

    /** @pre holds(op), so at most one of memAddr and the target is
     *  non-zero. */
    static Record
    pack(const MicroOp &op)
    {
        const std::uint64_t payload = op.memAddr | op.target32_;
        const RegBytes regs{
            static_cast<std::uint8_t>(op.typeTaken_ | ((payload >> 32) << 4)),
            op.srcA, op.srcB, op.dest};
        return {static_cast<std::uint32_t>(op.pc),
                std::bit_cast<std::uint32_t>(regs),
                static_cast<std::uint32_t>(payload)};
    }

    /** Rebuild the op: the type byte and register ids move as one
     *  masked word, and the payload goes to exactly one of memAddr
     *  and the target. */
    static MicroOp
    unpack(const Record &r)
    {
        const std::uint8_t type_byte = std::bit_cast<RegBytes>(r.regs)[0];
        const std::uint64_t payload =
            (static_cast<std::uint64_t>(type_byte & payloadHighBits)
             << 28) |
            r.payloadLow;
        // All ones for a load or store, zero otherwise: no branch.
        const std::uint64_t mem_mask = 0 -
            std::uint64_t{
                isMemory(static_cast<OpType>(type_byte & typeBits))};
        const RegBytes regs = std::bit_cast<RegBytes>(r.regs & regsMask);
        MicroOp op;
        op.pc = r.pc;
        op.memAddr = payload & mem_mask;
        op.target32_ = static_cast<std::uint32_t>(payload & ~mem_mask);
        op.typeTaken_ = regs[0];
        op.srcA = regs[1];
        op.srcB = regs[2];
        op.dest = regs[3];
        return op;
    }

    [[noreturn]] static void
    rejectUnpackable(const MicroOp &op)
    {
        if (op.pc >> 32) {
            panic("OpSequence: pc %#llx exceeds the 32-bit code address "
                  "space of the packed record",
                  static_cast<unsigned long long>(op.pc));
        }
        if (op.memAddr >= dataAddrLimit) {
            panic("OpSequence: memory address %#llx exceeds the 35-bit "
                  "data address space of the packed record",
                  static_cast<unsigned long long>(op.memAddr));
        }
        if (op.memAddr && !op.isMemoryOp()) {
            panic("OpSequence: memory address %#llx on non-memory op "
                  "type %u",
                  static_cast<unsigned long long>(op.memAddr),
                  static_cast<unsigned>(op.type()));
        }
        panic("OpSequence: branch target %#llx on non-control op type %u",
              static_cast<unsigned long long>(op.branchTarget()),
              static_cast<unsigned>(op.type()));
    }

    std::vector<Record> records_;
};

} // namespace espsim

#endif // ESPSIM_TRACE_OP_SEQUENCE_HH
