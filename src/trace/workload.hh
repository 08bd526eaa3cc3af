/**
 * @file
 * A workload is an ordered sequence of event traces — the stream an
 * asynchronous program's looper thread would dequeue and execute.
 *
 * The simulator only ever looks at the current event and the next two
 * queued ones (the events ESP pre-executes), so implementations may
 * generate traces lazily; InMemoryWorkload is the eager implementation
 * produced by the synthetic generator.
 */

#ifndef ESPSIM_TRACE_WORKLOAD_HH
#define ESPSIM_TRACE_WORKLOAD_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "trace/event_trace.hh"

namespace espsim
{

/** Half-open byte range [first, second) of the address space. */
using AddrRange = std::pair<Addr, Addr>;

/** Abstract ordered stream of event traces. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Human-readable name (appears in every report). */
    virtual const std::string &name() const = 0;

    /** Number of events in the stream. */
    virtual std::size_t numEvents() const = 0;

    /**
     * Trace of the @p idx-th event. The reference stays valid at least
     * until event idx+3 is requested (the simulator's lookahead span).
     * @pre idx < numEvents()
     */
    virtual const EventTrace &event(std::size_t idx) const = 0;

    /**
     * Address ranges resident in the LLC when the session begins (the
     * paper traces a browser that has been running; compulsory misses
     * on the application's standing code/heap image are not part of
     * the measured region). The simulator pre-warms the L2 with these.
     */
    virtual std::vector<AddrRange> warmSet() const { return {}; }

    /** Total normal-view instructions across all events. */
    InstCount totalInstructions() const;

    /** Fraction of events that are independent of their predecessors. */
    double independentEventFraction() const;
};

/** Workload with every trace materialised up front. */
class InMemoryWorkload : public Workload
{
  public:
    InMemoryWorkload(std::string name, std::vector<EventTrace> events);

    const std::string &name() const override { return name_; }
    std::size_t numEvents() const override { return events_.size(); }
    const EventTrace &event(std::size_t idx) const override;

    std::vector<AddrRange> warmSet() const override { return warmSet_; }
    void setWarmSet(std::vector<AddrRange> ranges)
    {
        warmSet_ = std::move(ranges);
    }

  private:
    std::string name_;
    std::vector<EventTrace> events_;
    std::vector<AddrRange> warmSet_;
};

} // namespace espsim

#endif // ESPSIM_TRACE_WORKLOAD_HH
