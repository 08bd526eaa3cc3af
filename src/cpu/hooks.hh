/**
 * @file
 * Observation/intervention points the OoO core exposes to speculation
 * engines (ESP, runahead).
 *
 * The core calls onStall() when it detects the situation the paper
 * keys on: a long-latency LLC miss has reached the head of the ROB (or
 * has frozen instruction fetch) and the core will sit idle for a known
 * number of cycles. The engine may spend those cycles pre-executing.
 */

#ifndef ESPSIM_CPU_HOOKS_HH
#define ESPSIM_CPU_HOOKS_HH

#include <cstddef>

#include "common/types.hh"
#include "trace/micro_op.hh"

namespace espsim
{

/** What blocked the core. */
enum class StallKind
{
    InstrLlcMiss, //!< instruction fetch missed in the LLC
    DataLlcMiss,  //!< load at ROB head missed in the LLC
};

/** Which speculation engine (if any) is attached to the core's stall
 *  hook; the cycle attributor charges consumed stall shadow to the
 *  matching accounting bucket. */
enum class SpecEngine : std::uint8_t
{
    None,
    Esp,
    Runahead,
};

/** Description of one idle window. */
struct StallContext
{
    Cycle now = 0;        //!< cycle the idle window begins
    Cycle idleCycles = 0; //!< its length
    StallKind kind = StallKind::DataLlcMiss;
    std::size_t triggerOpIdx = 0; //!< current-event op index at stall
    /** Destination register of the blocking LLC-miss load (noReg for
     *  instruction-side stalls); runahead seeds its invalid set here. */
    std::uint8_t missDest = noReg;
};

/** How often, in ops, the core re-asks CoreHooks::perOpActive()
 *  within an event while the answer is true. */
constexpr std::size_t perOpRecheckOps = 64;

/** Callbacks from the core; default implementation does nothing. */
class CoreHooks
{
  public:
    virtual ~CoreHooks() = default;

    /** A new event is about to execute (after looper overhead). */
    virtual void
    onEventStart(std::size_t event_idx, Cycle now)
    {
        (void)event_idx;
        (void)now;
    }

    /** The current event finished. */
    virtual void
    onEventEnd(std::size_t event_idx, Cycle now)
    {
        (void)event_idx;
        (void)now;
    }

    /**
     * Whether beforeOp() still needs to observe the current event's
     * ops. The core asks before the first op of each event (after
     * onEventStart) and again every perOpRecheckOps ops while the
     * answer is true; once it is false, the core makes no further
     * beforeOp() call until the next event. An engine may therefore
     * answer false only when every later beforeOp() call of this event
     * would do nothing. Passive engines answer false throughout.
     */
    virtual bool perOpActive() const { return false; }

    /** Called before each op of the current event executes, for as
     *  long as perOpActive() keeps answering true (see there). */
    virtual void
    beforeOp(std::size_t op_idx, const MicroOp &op, Cycle now)
    {
        (void)op_idx;
        (void)op;
        (void)now;
    }

    /**
     * The core idles; the engine may use the window.
     * @return cycles of the idle shadow the engine spent pre-executing
     * (0 when unused); the core's cycle attributor re-charges that
     * portion of the stall to the engine's accounting bucket.
     */
    virtual Cycle
    onStall(const StallContext &ctx)
    {
        (void)ctx;
        return 0;
    }

    /** Which engine this hook implements (accounting attribution). */
    virtual SpecEngine
    engine() const
    {
        return SpecEngine::None;
    }
};

} // namespace espsim

#endif // ESPSIM_CPU_HOOKS_HH
