/**
 * @file
 * End-to-end request-latency accounting for paced (server) runs.
 *
 * ServePacer sits between the core's event loop and the Poisson
 * ArrivalProcess: it asks the schedule when each event arrives, lets
 * the core idle or queue accordingly, and splits every request's lifetime into
 *   queue   = dispatch - arrival   (waiting behind the loop)
 *   service = retire  - dispatch   (running on the core)
 *   total   = retire  - arrival
 * Each class feeds a reservoir-backed SampleStat (bounded memory at
 * millions of events, deterministic given the run seed) plus a
 * power-of-two total-latency histogram for the artifact.
 */

#ifndef ESPSIM_SERVER_LATENCY_HH
#define ESPSIM_SERVER_LATENCY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/histogram.hh"
#include "cpu/pacer.hh"
#include "server/arrival.hh"

namespace espsim
{

/** Scalar summary of one latency class (cycles). */
struct LatencySummary
{
    std::uint64_t count = 0;
    double mean = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
};

/** Extract count/mean/max and the tail quantiles from @p s. */
LatencySummary summarizeLatency(const SampleStat &s);

/** Power-of-two histogram buckets: bucket i holds [2^i, 2^(i+1)). */
constexpr std::size_t latencyHistBuckets = 40;

/** Queue/service latency of one event-handler type. */
struct HandlerLatency
{
    std::uint64_t events = 0;
    SampleStat queue;
    SampleStat service;
};

/** EventPacer that drives Poisson arrivals and records latency. */
class ServePacer final : public EventPacer
{
  public:
    /**
     * @p reservoirCapacity bounds each latency class's sample memory
     * (0 = keep every sample); @p seed drives reservoir replacement.
     * @p numHandlers preallocates per-handler breakdown slots (0 =
     * aggregate classes only); slots are fixed up front so the
     * per-event recording path never allocates.
     */
    ServePacer(std::unique_ptr<ArrivalProcess> arrival,
               std::size_t reservoirCapacity, std::uint64_t seed,
               std::size_t numHandlers = 0);

    Cycle eventArrival(std::size_t idx, Cycle now) override;
    void eventDispatched(std::size_t idx, Cycle now) override;
    void eventRetired(std::size_t idx, Cycle now) override;
    void eventHandlerType(std::size_t idx,
                          std::uint32_t handler_type) override;

    /** Per-handler breakdowns, indexed by handler type. */
    const std::vector<HandlerLatency> &handlers() const
    {
        return handlers_;
    }

    const SampleStat &queueLatency() const { return queue_; }
    const SampleStat &serviceLatency() const { return service_; }
    const SampleStat &totalLatency() const { return total_; }
    const std::array<std::uint64_t, latencyHistBuckets> &
    histogram() const
    {
        return hist_;
    }
    std::uint64_t events() const { return events_; }

  private:
    std::unique_ptr<ArrivalProcess> arrival_;
    Cycle curArrival_ = 0;
    Cycle curDispatch_ = 0;
    std::uint32_t curHandler_ = 0;
    SampleStat queue_;
    SampleStat service_;
    SampleStat total_;
    std::vector<HandlerLatency> handlers_;
    std::array<std::uint64_t, latencyHistBuckets> hist_{};
    std::uint64_t events_ = 0;
};

} // namespace espsim

#endif // ESPSIM_SERVER_LATENCY_HH
