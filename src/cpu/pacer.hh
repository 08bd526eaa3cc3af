/**
 * @file
 * Event pacing: an external arrival discipline for the core's event
 * loop.
 *
 * Without a pacer the core replays events back-to-back (the paper's
 * saturated-looper setup — the queue never runs dry). A pacer models a
 * *server* instead: events arrive by an open-loop Poisson process, the
 * core idles when the queue is empty, and per-event
 * queue/service/total latency becomes measurable. Idle cycles are charged to their own cycle
 * bucket so accounting closure (sum of buckets == cycles) still holds.
 *
 * Implementations live in src/server/; the core only sees this
 * interface so the cpu layer stays free of workload policy.
 */

#ifndef ESPSIM_CPU_PACER_HH
#define ESPSIM_CPU_PACER_HH

#include <cstddef>
#include <cstdint>

#include "common/types.hh"

namespace espsim
{

/** Arrival discipline + latency probe for the core's event loop. */
class EventPacer
{
  public:
    virtual ~EventPacer() = default;

    /**
     * Cycle at which event @p idx arrives in the queue. Called exactly
     * once per event, in dispatch order, with @p now the cycle the
     * core became free. Returns may lie in the past (the event queued
     * while the core was busy) or the future (the core idles until
     * then).
     */
    virtual Cycle eventArrival(std::size_t idx, Cycle now) = 0;

    /** Event @p idx began dispatch (post looper overhead). */
    virtual void eventDispatched(std::size_t idx, Cycle now)
    {
        (void)idx;
        (void)now;
    }

    /** Event @p idx retired; @p now is its completion cycle. */
    virtual void eventRetired(std::size_t idx, Cycle now)
    {
        (void)idx;
        (void)now;
    }

    /**
     * The core resolved event @p idx's static handler id (called
     * between eventDispatched and eventRetired). Lets a pacer keep
     * per-handler latency breakdowns without knowing the trace format.
     */
    virtual void eventHandlerType(std::size_t idx,
                                  std::uint32_t handler_type)
    {
        (void)idx;
        (void)handler_type;
    }
};

} // namespace espsim

#endif // ESPSIM_CPU_PACER_HH
