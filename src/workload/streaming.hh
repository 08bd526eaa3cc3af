/**
 * @file
 * Streaming workload core: events are produced on demand by an
 * EventSource and retired once the replay window moves past them, so
 * multi-million-event runs hold only a bounded sliding window of
 * traces resident — peak RSS is flat in the stream length.
 *
 * This generalises the LazyWorkload cache (which is now a thin adapter
 * over a SyntheticGenerator-backed source): any deterministic
 * id -> EventTrace function can feed the simulator, including the
 * request-serving profiles in src/server/.
 *
 * Retired traces are recycled through a small free list: a new
 * EventTrace is move-assigned into a retired slot, which saves the
 * slot's shared allocation. The move replaces the slot's OpSequence
 * arrays with the freshly generated ones; it does not reuse them. In
 * steady state the per-event allocations are therefore what trace
 * generation itself needs, and the window-advance boundary is the only
 * place the streaming loop allocates (see tests/test_zero_alloc.cc for
 * the allocation-count assertions).
 *
 * Concurrency contract is identical to the old LazyWorkload: safe to
 * share across concurrently replaying simulators; the cache is
 * mutex-guarded and each reader thread pins its recent window, so
 * eviction by a fast thread never invalidates a reference a lagging
 * thread still holds. The Workload reference-validity contract
 * (valid until idx + 3 is requested) is honoured per calling thread.
 */

#ifndef ESPSIM_WORKLOAD_STREAMING_HH
#define ESPSIM_WORKLOAD_STREAMING_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "trace/workload.hh"
#include "workload/generator.hh"

namespace espsim
{

/**
 * A deterministic event-trace producer: makeEvent(id) must return a
 * bit-identical trace for the same id every time it is called (the
 * streaming cache regenerates evicted events on re-request, e.g. when
 * a second simulator replays the same shared workload).
 */
class EventSource
{
  public:
    virtual ~EventSource() = default;

    /** Stream name (appears in every report). */
    virtual const std::string &name() const = 0;

    /** Total number of events in the stream. */
    virtual std::size_t numEvents() const = 0;

    /** Generate the @p id-th event trace. */
    virtual EventTrace makeEvent(std::uint64_t id) const = 0;

    /** LLC-resident ranges at session start (Workload::warmSet). */
    virtual std::vector<AddrRange> warmSet() const { return {}; }
};

/** EventSource over the synthetic browser-profile generator. */
class GeneratorSource : public EventSource
{
  public:
    explicit GeneratorSource(AppProfile profile)
        : generator_(std::move(profile)),
          name_(generator_.profile().name)
    {
    }

    const std::string &name() const override { return name_; }
    std::size_t numEvents() const override
    {
        return generator_.profile().numEvents;
    }
    EventTrace makeEvent(std::uint64_t id) const override
    {
        return generator_.generateEvent(id);
    }
    std::vector<AddrRange> warmSet() const override
    {
        return generator_.warmSet();
    }

  private:
    SyntheticGenerator generator_;
    std::string name_;
};

/** Workload over an EventSource with a bounded sliding window. */
class StreamingWorkload : public Workload
{
  public:
    /** @p window traces are kept resident (>= 4 per the contract). */
    explicit StreamingWorkload(std::unique_ptr<const EventSource> source,
                               std::size_t window = 8);

    const std::string &name() const override { return name_; }
    std::size_t numEvents() const override { return numEvents_; }
    const EventTrace &event(std::size_t idx) const override;
    std::vector<AddrRange> warmSet() const override;

    /** Traces currently materialised (tests / memory accounting). */
    std::size_t residentTraces() const;
    /** Total events generated over the lifetime (cache misses). */
    std::uint64_t generations() const;
    /** Generations that reused a retired trace's storage. */
    std::uint64_t recycled() const;

    const EventSource &source() const { return *source_; }

  private:
    std::unique_ptr<const EventSource> source_;
    std::string name_;
    std::size_t numEvents_;
    std::size_t window_;

    /** One cached trace, keyed by event index. */
    using Entry = std::pair<std::size_t, std::shared_ptr<EventTrace>>;

    mutable std::mutex mutex_;
    /** Sorted by event index; binary-searched. The window is small
     *  (a handful of entries per reader), so a flat vector beats a
     *  node-per-entry map. */
    mutable std::vector<Entry> cache_;
    /**
     * Traces handed to each reader thread recently, keyed by event
     * index (sorted). A pin keeps its trace alive (shared_ptr) even
     * after cache eviction, and is released only once the thread
     * requests an index window_ ahead — so returned references honour
     * the validity contract no matter how many event() calls the
     * thread makes in between (ESP re-requests its lookahead events on
     * every stall episode).
     */
    struct PinWindow
    {
        std::thread::id tid;
        std::vector<Entry> pins; //!< sorted by event index
    };
    mutable std::vector<PinWindow> pins_;
    /**
     * Retired traces awaiting reuse. Only traces whose shared_ptr is
     * unique land here, so move-assigning the next generated event
     * into one can never mutate a trace a reader still references.
     */
    mutable std::vector<std::shared_ptr<EventTrace>> freeList_;
    mutable std::uint64_t generations_ = 0;
    mutable std::uint64_t recycled_ = 0;

    /** Sorted-vector lower bound on the event-index key. */
    static std::vector<Entry>::iterator
    findAt(std::vector<Entry> &entries, std::size_t idx);
};

} // namespace espsim

#endif // ESPSIM_WORKLOAD_STREAMING_HH
