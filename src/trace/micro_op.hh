/**
 * @file
 * The unit of work in the trace-driven timing model.
 *
 * A MicroOp carries everything the core, caches, branch predictor, and
 * the ESP/runahead speculation engines need: program counter, memory
 * address, control-flow outcome, and register operands (the latter let
 * runahead track which instructions are invalid after a missing load).
 *
 * The struct is 24 bytes: the branch target lives in 32 bits (every
 * code address the workload layout can emit — generator.hh bases —
 * fits; the setter checks), and the op type shares a byte with the
 * taken flag. Only `pc`, `memAddr` and the register ids remain
 * directly-addressable fields; type, taken and branchTarget go through
 * accessors. Stored traces pack each op further, into 12 bytes with a
 * 35-bit data address (see OpSequence in op_sequence.hh). The last
 * four bytes (typeTaken_, srcA, srcB, dest) keep the packed record's
 * order so that OpSequence decodes them as one word; it checks the
 * order at compile time.
 */

#ifndef ESPSIM_TRACE_MICRO_OP_HH
#define ESPSIM_TRACE_MICRO_OP_HH

#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"

namespace espsim
{

/** Number of architectural registers modeled for dependence tracking. */
constexpr unsigned numArchRegs = 32;

/** Register id meaning "no operand". */
constexpr std::uint8_t noReg = 0xff;

/** One dynamic instruction of an event's execution trace. */
struct MicroOp
{
    /** Instruction address. */
    Addr pc = 0;

    /** Effective address for loads/stores; 0 otherwise. */
    Addr memAddr = 0;

  private:
    /** Next PC of a taken branch, truncated to 32 bits (checked). */
    std::uint32_t target32_ = 0;

    /** Operation class in the low 7 bits, taken flag in bit 7. */
    std::uint8_t typeTaken_ = 0;

    static constexpr std::uint8_t takenBit = 0x80;

    friend class OpSequence; // packs and unpacks the private fields

  public:
    /** Source register operands (noReg if unused). */
    std::uint8_t srcA = noReg;
    std::uint8_t srcB = noReg;

    /** Destination register (noReg if none). */
    std::uint8_t dest = noReg;

    /** Operation class. */
    OpType
    type() const
    {
        return static_cast<OpType>(typeTaken_ & ~takenBit);
    }

    void
    setType(OpType type)
    {
        typeTaken_ = static_cast<std::uint8_t>(
            (typeTaken_ & takenBit) | static_cast<std::uint8_t>(type));
    }

    /** Actual direction of a conditional branch (true for all taken
     *  control transfers). */
    bool taken() const { return (typeTaken_ & takenBit) != 0; }

    void
    setTaken(bool taken)
    {
        typeTaken_ = static_cast<std::uint8_t>(
            taken ? (typeTaken_ | takenBit) : (typeTaken_ & ~takenBit));
    }

    /** Next PC actually followed by a taken branch; 0 otherwise. */
    Addr branchTarget() const { return target32_; }

    void
    setBranchTarget(Addr target)
    {
        if (target >> 32) {
            panic("MicroOp: branch target %#llx exceeds the 32-bit "
                  "code address space the packed layout assumes",
                  static_cast<unsigned long long>(target));
        }
        target32_ = static_cast<std::uint32_t>(target);
    }

    bool isBranchOp() const { return isBranch(type()); }
    bool isMemoryOp() const { return isMemory(type()); }
    bool isLoad() const { return type() == OpType::Load; }
    bool isStore() const { return type() == OpType::Store; }

    /** Field-by-field equality (every field, including the private
     *  ones). */
    bool operator==(const MicroOp &) const = default;
};

static_assert(sizeof(MicroOp) == 24,
              "MicroOp must stay in its packed 24-byte layout");

} // namespace espsim

#endif // ESPSIM_TRACE_MICRO_OP_HH
