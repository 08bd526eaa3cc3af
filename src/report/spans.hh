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
 * is empty. Every per-event observer is such a sink: the timeline
 * (report/timeline.hh), the counter sampler behind the telemetry
 * stream (report/telemetry.hh), and SpanCollector.
 * SpanCollector is the standard request-tracing sink: a preallocated
 * flight-recorder ring of the most recent spans, a bounded worst-K
 * table, and an online tail-anomaly detector over a power-of-two
 * latency histogram. Steady state allocates nothing (see
 * tests/test_zero_alloc.cc for the allocation-count assertions); only
 * the one-shot anomaly callback — which dumps the ring as a Perfetto
 * trace via report/flight_recorder.hh — is allowed to touch the heap.
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
#include <functional>
#include <vector>

#include "common/ring_buffer.hh"
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

/** One served request's causal record (POD; copied into the ring). */
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

/** Power-of-two total-latency buckets for the running-p99 estimate. */
constexpr std::size_t spanHistBuckets = 48;

/** Knobs of one SpanCollector. */
struct SpanCollectorConfig
{
    /** Flight-recorder ring capacity (rounded up to a power of two). */
    std::size_t ringCapacity = 256;
    /** Worst-request table size (largest total latency). */
    std::size_t worstK = 8;
    /** Anomaly: total latency > threshold x running p99 estimate. */
    double anomalyThreshold = 8.0;
    /** Detector warmup: no triggers before this many spans. */
    std::uint64_t anomalyMinSamples = 64;
    /** Structured anomaly records kept (overflow is counted). */
    std::size_t maxAnomalyRecords = 32;
};

/** One detector firing: the trigger span and the estimate it beat. */
struct AnomalyRecord
{
    RequestSpan span;
    double runningP99 = 0.0;
};

/**
 * The standard SpanSink: flight-recorder ring + worst-K table +
 * online tail-anomaly detector. All storage is preallocated in the
 * constructor; onSpan() never allocates.
 */
class SpanCollector final : public SpanSink
{
  public:
    using AnomalyCallback =
        std::function<void(const SpanCollector &, const RequestSpan &)>;

    explicit SpanCollector(const SpanCollectorConfig &config);

    void onSpan(const RequestSpan &span) override;

    /**
     * Invoked exactly once, on the *first* anomaly, while the ring
     * still holds the window around the trigger span (the trigger is
     * the ring's newest entry). The callback may allocate — it is off
     * the steady-state path by construction.
     */
    void
    setAnomalyCallback(AnomalyCallback callback)
    {
        onAnomaly_ = std::move(callback);
    }

    const SpanCollectorConfig &config() const { return config_; }

    /** The flight-recorder ring, oldest span first. */
    const FixedRing<RequestSpan> &ring() const { return ring_; }

    /** Spans observed over the whole run (ring overwrites count). */
    std::uint64_t spansRecorded() const { return spansRecorded_; }

    /** Worst-K spans, sorted by descending total latency. */
    std::vector<RequestSpan> worstSpans() const;

    const std::vector<AnomalyRecord> &anomalies() const
    {
        return anomalies_;
    }
    /** Anomalies past maxAnomalyRecords (counted, not stored). */
    std::uint64_t anomalyOverflow() const { return anomalyOverflow_; }

    /** Current running-p99 estimate (pow2-bucket upper edge). */
    double runningP99() const;

    /** True once the one-shot anomaly callback fired. */
    bool dumpTriggered() const { return dumpTriggered_; }
    /** Event index of the span that fired the callback. */
    std::size_t dumpEvent() const { return dumpEvent_; }

  private:
    SpanCollectorConfig config_;
    FixedRing<RequestSpan> ring_;
    std::vector<RequestSpan> worst_; //!< min-heap by total latency
    std::vector<AnomalyRecord> anomalies_;
    std::array<std::uint64_t, spanHistBuckets> hist_{};
    std::uint64_t spansRecorded_ = 0;
    std::uint64_t anomalyOverflow_ = 0;
    bool dumpTriggered_ = false;
    std::size_t dumpEvent_ = 0;
    AnomalyCallback onAnomaly_;

    void noteWorst(const RequestSpan &span);
};

} // namespace espsim

#endif // ESPSIM_REPORT_SPANS_HH
