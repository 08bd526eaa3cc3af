#include "server/latency.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace espsim
{

LatencySummary
summarizeLatency(const SampleStat &s)
{
    LatencySummary out;
    out.count = s.count();
    out.mean = s.mean();
    out.max = s.max();
    out.p50 = s.percentile(50.0);
    out.p95 = s.percentile(95.0);
    out.p99 = s.percentile(99.0);
    out.p999 = s.percentile(99.9);
    return out;
}

ServePacer::ServePacer(std::unique_ptr<ArrivalProcess> arrival,
                       std::size_t reservoirCapacity,
                       std::uint64_t seed, std::size_t numHandlers)
    : arrival_(std::move(arrival))
{
    if (!arrival_)
        panic("ServePacer needs an arrival process");
    if (reservoirCapacity > 0) {
        // Distinct seeds per class: identical replacement streams
        // would correlate the three reservoirs' sampling error.
        queue_.enableReservoir(reservoirCapacity, seed ^ 0x71);
        service_.enableReservoir(reservoirCapacity, seed ^ 0x5e);
        total_.enableReservoir(reservoirCapacity, seed ^ 0x70);
    }
    // Per-handler breakdowns: a smaller reservoir per handler (each
    // handler sees only a slice of the stream) keeps the table's
    // memory bounded.
    handlers_.resize(numHandlers);
    if (reservoirCapacity > 0) {
        const std::size_t per_handler =
            std::min<std::size_t>(reservoirCapacity, 1024);
        for (std::size_t h = 0; h < handlers_.size(); ++h) {
            handlers_[h].queue.enableReservoir(
                per_handler, seed ^ (0x9100 + 2 * h));
            handlers_[h].service.enableReservoir(
                per_handler, seed ^ (0x9101 + 2 * h));
        }
    }
}

Cycle
ServePacer::eventArrival(std::size_t idx, Cycle now)
{
    (void)now;
    (void)idx;
    curArrival_ = arrival_->arrivalCycle();
    return curArrival_;
}

void
ServePacer::eventDispatched(std::size_t idx, Cycle now)
{
    (void)idx;
    curDispatch_ = now;
}

void
ServePacer::eventRetired(std::size_t idx, Cycle now)
{
    (void)idx;
    // The core dispatches in arrival order, so dispatch/retire always
    // trail this event's recorded arrival.
    const Cycle queue_cycles =
        curDispatch_ >= curArrival_ ? curDispatch_ - curArrival_ : 0;
    const Cycle service_cycles =
        now >= curDispatch_ ? now - curDispatch_ : 0;
    const Cycle total_cycles = queue_cycles + service_cycles;
    queue_.record(static_cast<double>(queue_cycles));
    service_.record(static_cast<double>(service_cycles));
    total_.record(static_cast<double>(total_cycles));
    const std::size_t bucket = total_cycles == 0
        ? 0
        : std::min<std::size_t>(
              static_cast<std::size_t>(
                  std::bit_width(total_cycles) - 1),
              latencyHistBuckets - 1);
    ++hist_[bucket];
    ++events_;
    if (curHandler_ < handlers_.size()) {
        HandlerLatency &h = handlers_[curHandler_];
        ++h.events;
        h.queue.record(static_cast<double>(queue_cycles));
        h.service.record(static_cast<double>(service_cycles));
    }
}

void
ServePacer::eventHandlerType(std::size_t idx,
                             std::uint32_t handler_type)
{
    (void)idx;
    curHandler_ = handler_type;
}

} // namespace espsim
