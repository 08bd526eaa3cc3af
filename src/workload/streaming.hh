/**
 * @file
 * Streaming workload core: events are produced on demand by an
 * EventSource and retired once the replay window moves past them, so
 * multi-million-event runs hold only a bounded sliding window of
 * traces resident — peak RSS is flat in the stream length.
 *
 * Any deterministic id -> EventTrace function can feed the simulator:
 * the synthetic browser profiles (GeneratorSource) and the
 * request-serving profiles in src/server/.
 *
 * Retired traces are recycled through a small free list: a new
 * EventTrace is move-assigned into a retired slot, which saves the
 * slot's allocation. The move replaces the slot's OpSequence arrays
 * with the freshly generated ones; it does not reuse them. In steady
 * state the per-event allocations are therefore what trace generation
 * itself needs, and the window-advance boundary is the only place the
 * streaming loop allocates (see tests/test_zero_alloc.cc for the
 * allocation-count assertions).
 *
 * One reader, not thread-safe: a StreamingWorkload serves exactly one
 * replay. `espsim serve` builds a fresh one per config; a sweep that
 * replays one app under several configs at once shares the resident
 * InMemoryWorkload instead. A returned reference stays valid until the
 * reader requests an index window - 1 past it, which covers the
 * Workload contract (valid until idx + 3 is requested).
 */

#ifndef ESPSIM_WORKLOAD_STREAMING_HH
#define ESPSIM_WORKLOAD_STREAMING_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "trace/workload.hh"
#include "workload/generator.hh"

namespace espsim
{

/**
 * A deterministic event-trace producer: makeEvent(id) must return a
 * bit-identical trace for the same id every time it is called (the
 * streaming cache regenerates an evicted event when it is requested
 * again).
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
    /** The smallest window that honours the contract (idx .. idx + 3). */
    static constexpr std::size_t minWindow = 4;

    /** @p window traces are kept resident (clamped to minWindow). */
    explicit StreamingWorkload(std::unique_ptr<const EventSource> source,
                               std::size_t window = 8);

    const std::string &name() const override { return name_; }
    std::size_t numEvents() const override { return numEvents_; }
    const EventTrace &event(std::size_t idx) const override;
    std::vector<AddrRange> warmSet() const override;

    /** Traces currently materialised (tests / memory accounting). */
    std::size_t residentTraces() const { return cache_.size(); }
    /** Total events generated over the lifetime (cache misses). */
    std::uint64_t generations() const { return generations_; }
    /** Generations that reused a retired trace's storage. */
    std::uint64_t recycled() const { return recycled_; }

    const EventSource &source() const { return *source_; }

  private:
    std::unique_ptr<const EventSource> source_;
    std::string name_;
    std::size_t numEvents_;
    std::size_t window_;

    /** One cached trace, keyed by event index. The trace is owned
     *  through a pointer so references survive vector inserts. */
    using Entry = std::pair<std::size_t, std::unique_ptr<EventTrace>>;

    /** Sorted by event index; binary-searched. The window is small,
     *  so a flat vector beats a node-per-entry map. */
    mutable std::vector<Entry> cache_;
    /** Retired traces awaiting reuse (at most window_ of them). */
    mutable std::vector<std::unique_ptr<EventTrace>> freeList_;
    mutable std::uint64_t generations_ = 0;
    mutable std::uint64_t recycled_ = 0;
};

} // namespace espsim

#endif // ESPSIM_WORKLOAD_STREAMING_HH
