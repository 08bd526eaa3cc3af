/**
 * @file
 * Dynamic instruction trace of one asynchronous event, plus the
 * metadata ESP needs: handler identity, the event-argument object
 * address, and the inter-event dependence that makes speculative
 * pre-execution of this event diverge.
 */

#ifndef ESPSIM_TRACE_EVENT_TRACE_HH
#define ESPSIM_TRACE_EVENT_TRACE_HH

#include <cstdint>
#include <limits>

#include "common/logging.hh"
#include "trace/micro_op.hh"
#include "trace/op_sequence.hh"

namespace espsim
{

/** Sentinel: event has no divergence point / no producer. */
constexpr std::size_t noDivergence = std::numeric_limits<std::size_t>::max();

/**
 * The recorded execution of one event handler.
 *
 * Two views of the same event exist conceptually:
 *  - the *normal* view: what the event does when executed in program
 *    order (ops[0..size));
 *  - the *speculative* view: what a pre-execution that jumped over
 *    not-yet-committed earlier events observes. For independent events
 *    the views are identical. For an event with a read-after-write
 *    dependence on a skipped event, the speculative view matches the
 *    normal view up to @ref divergencePoint and is perturbed after it
 *    (wrong values steer wrong paths). The perturbed tail is stored in
 *    @ref divergedTail.
 */
class EventTrace
{
  public:
    /** Monotonic event sequence number within the workload. */
    std::uint64_t id = 0;

    /** Static handler type (which callback function ran). */
    std::uint32_t handlerType = 0;

    /** Starting instruction address of the handler. */
    Addr handlerPc = 0;

    /** Address of the argument object passed to the handler (§4.1). */
    Addr argObjectAddr = 0;

    /** Normal-view dynamic instruction stream (packed records). */
    OpSequence ops;

    /**
     * Index of the first op whose behaviour depends on a value written
     * by an earlier (potentially skipped) event; noDivergence when the
     * event is independent.
     */
    std::size_t divergencePoint = noDivergence;

    /**
     * Speculative-view replacement for ops[divergencePoint..): the
     * wrong path a pre-execution follows. Empty for independent
     * events. May be shorter than the real tail (models pre-executions
     * that veer off and fail to complete).
     */
    OpSequence divergedTail;

    std::size_t size() const { return ops.size(); }
    bool independent() const { return divergencePoint == noDivergence; }

    /**
     * Number of ops visible in the speculative view (normal prefix +
     * diverged tail).
     */
    std::size_t
    speculativeSize() const
    {
        if (independent())
            return ops.size();
        return divergencePoint + divergedTail.size();
    }

    /**
     * Op at index @p idx as seen by a speculative pre-execution,
     * rebuilt by value from the packed storage. Inline: the spec
     * pre-execution loop calls this once per op.
     * @pre idx < speculativeSize()
     */
    MicroOp
    speculativeOp(std::size_t idx) const
    {
        if (independent() || idx < divergencePoint) {
            if (idx >= ops.size())
                panic("speculativeOp index %zu out of range %zu", idx,
                      ops.size());
            return ops[idx];
        }
        const std::size_t tail_idx = idx - divergencePoint;
        if (tail_idx >= divergedTail.size())
            panic("speculativeOp tail index %zu out of range %zu",
                  tail_idx, divergedTail.size());
        return divergedTail[tail_idx];
    }

    /**
     * Fraction of speculative-view ops identical to the normal view
     * (the paper reports > 99% match).
     */
    double speculativeMatchFraction() const;
};

} // namespace espsim

#endif // ESPSIM_TRACE_EVENT_TRACE_HH
