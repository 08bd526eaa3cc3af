/**
 * @file
 * Per-request span tracing with ESP blame attribution.
 *
 * Every served request carries a span — queue (arrival to dispatch),
 * service (dispatch to retire) — whose execute phase captures delta
 * snapshots of the core's cycle-bucket accounting and of the per-source
 * prefetch lifecycle counters. The result is a causal decomposition of
 * each individual request: which buckets its cycles went to, how much
 * stall shadow ESP pre-execution consumed on its behalf, and whether
 * the prefetches attributed to it were timely, late, or harmful.
 *
 * RequestSpan is the one per-event record that leaves the core: each
 * retired event's span goes to every SpanSink on the core's sink list
 * (OoOCore::addSpanSink), and the core builds no span while the list
 * is empty. Every per-event observer is such a sink, and none feeds
 * another: the timeline (report/timeline.hh), the counter sampler
 * behind the telemetry stream (report/telemetry.hh), and
 * SpanCollector.
 * SpanCollector is the standard request-tracing sink: a span count
 * and a bounded worst-K table. Steady state allocates nothing (see
 * tests/test_zero_alloc.cc for the allocation-count assertion). Runs
 * are deterministic, so a slow request from the worst-K table is
 * inspected by re-running it with a timeline attached.
 *
 * Span cycle deltas close exactly against core accounting:
 *   Σ span.buckets == span.retire - span.startCycle
 * and consecutive spans tile the run (each startCycle equals the
 * previous retire), so per-request blame sums back to the whole run.
 */

#ifndef ESPSIM_REPORT_SPANS_HH
#define ESPSIM_REPORT_SPANS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "cpu/ooo_core.hh"
#include "prefetch/inflight.hh"

namespace espsim
{

/** Prefetch lifecycle movement attributed to one request's span. */
struct SpanPrefetchDelta
{
    std::uint64_t issued = 0;
    std::uint64_t timely = 0;
    std::uint64_t late = 0;
    std::uint64_t harmful = 0;
};

/** One served request's causal record (POD). */
struct RequestSpan
{
    std::size_t index = 0;          //!< event sequence number
    std::uint32_t handlerType = 0;  //!< static handler id
    Cycle startCycle = 0; //!< core clock when the loop turned to it
    Cycle arrival = 0;    //!< pacer arrival (== startCycle unpaced)
    Cycle dispatch = 0;   //!< first op entered the pipeline
    Cycle retire = 0;     //!< event fully retired
    InstCount instructions = 0;
    /** Cycle-bucket deltas over [startCycle, retire). */
    CycleBucketArray buckets{};
    /** Per-source prefetch lifecycle deltas over the same window. */
    std::array<SpanPrefetchDelta, numPrefetchSources> prefetch{};

    Cycle
    queueCycles() const
    {
        return dispatch >= arrival ? dispatch - arrival : 0;
    }
    Cycle serviceCycles() const { return retire - dispatch; }
    Cycle totalCycles() const { return queueCycles() + serviceCycles(); }
    /** Cycles the core's clock advanced while this span was current. */
    Cycle spanCycles() const { return retire - startCycle; }
    Cycle espPreExecCycles() const
    {
        return buckets[static_cast<std::size_t>(CycleBucket::EspPreExec)];
    }

    Cycle
    bucketSum() const
    {
        Cycle sum = 0;
        for (const Cycle c : buckets)
            sum += c;
        return sum;
    }
};

/** Receives one RequestSpan per retired event (core attach-point). */
class SpanSink
{
  public:
    virtual ~SpanSink() = default;
    virtual void onSpan(const RequestSpan &span) = 0;
};

/**
 * The standard SpanSink: a span count and a worst-K table. All
 * storage is preallocated in the constructor; onSpan() never
 * allocates.
 */
class SpanCollector final : public SpanSink
{
  public:
    /** @param worstK worst-request table size (largest total
     *  latency). */
    explicit SpanCollector(std::size_t worstK);

    void onSpan(const RequestSpan &span) override;

    /** Spans observed over the whole run. */
    std::uint64_t spansRecorded() const { return spansRecorded_; }

    /** Worst-K spans, sorted by descending total latency, the older
     *  request first on a tie. */
    std::vector<RequestSpan> worstSpans() const;

  private:
    std::size_t worstK_;
    std::vector<RequestSpan> worst_; //!< min-heap by total latency
    std::uint64_t spansRecorded_ = 0;
};

} // namespace espsim

#endif // ESPSIM_REPORT_SPANS_HH
