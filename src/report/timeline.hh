/**
 * @file
 * Opt-in per-event timeline recorder with Chrome trace_event export.
 *
 * When attached to a run (espsim run --timeline out.json), the
 * recorder is one of the core's span sinks: each retired event's
 * RequestSpan (report/spans.hh) supplies its queue/dispatch/retire
 * cycles, cycle-bucket blame and prefetch-issue tallies. Only the
 * intra-event detail comes from elsewhere: the core reports every
 * stall it charges (I-miss bubble, ROB-head data miss, LSQ full,
 * mispredict flush or BTB miss), named by its cycle bucket, and the
 * ESP controller each pre-execution window it spends inside a stall
 * shadow. Those land in a pending record that the event's span then
 * closes. The trace is Chrome trace_event JSON, which loads directly
 * in Perfetto (https://ui.perfetto.dev) or chrome://tracing — fitting,
 * given the paper's workloads are Chromium's renderer events.
 *
 * A stall slice spans the whole stall, so on a run with a speculation
 * engine it also covers the shadow the engine consumed: per event,
 * Σ miss slices == Σ miss buckets + esp_pre_exec + runahead, and
 * Σ mispredict_redirect slices == that bucket.
 *
 * Cycle-to-time mapping: 1 simulated cycle = 1 microsecond of trace
 * time (`ts`/`dur` are microseconds in the trace_event spec), so a
 * slice's `dur` reads directly as its cycle count.
 *
 * Memory behaviour: streamTo(path) writes the header, then each
 * event's record group (slices, stalls, ESP windows) as soon as its
 * span arrives, so the buffer holds at most one event's records;
 * closeStream() writes the interval tracks and the footer. Without a
 * stream the records are only counted (numEvents() and friends).
 * setEventLimit(n) caps the recorded events at n; later events are
 * dropped (and counted) instead of silently ballooning the file, with
 * a warning to stderr when the trace is closed.
 *
 * A run with both a timeline and a counter sampler
 * (report/telemetry.hh) also gets interval counter tracks: the
 * sampler hands each absolute counter snapshot to onCounterSnapshot(),
 * which derives IPC, L1-I MPKI, L1-D miss rate and ESP occupancy from
 * the difference to the previous snapshot. They land on their own
 * trace row so phases line up visually with the event slices.
 *
 * The recorder costs nothing when absent: the core builds no span
 * while its sink list is empty, and the stall and ESP-window calls sit
 * behind a nullable pointer.
 */

#ifndef ESPSIM_REPORT_TIMELINE_HH
#define ESPSIM_REPORT_TIMELINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "report/spans.hh"

namespace espsim
{

class JsonWriter;
struct TelemetrySnapshot;

/** Trace format version written into the exported file. */
constexpr std::uint32_t timelineFormatVersion = 1;

/** Records one run's per-event timing; exports Chrome trace JSON. */
class EventTimeline final : public SpanSink
{
  public:
    EventTimeline();
    ~EventTimeline() override;

    EventTimeline(const EventTimeline &) = delete;
    EventTimeline &operator=(const EventTimeline &) = delete;

    /**
     * One retired event: the span closes the pending record of the
     * stalls and ESP windows recorded since the previous span. Its
     * cycle buckets are exported both as a Perfetto counter track and
     * as args on the event slice, so stalls are explained visually.
     */
    void onSpan(const RequestSpan &span) override;

    /**
     * One stall the core charged to @p bucket, @p dur cycles starting
     * at @p start; the slice is named cycleBucketName(@p bucket).
     */
    void recordStall(CycleBucket bucket, Cycle start, Cycle dur);

    /**
     * ESP spent @p dur cycles of a stall shadow pre-executing event
     * @p spec_event_idx at depth @p depth (1-based: ESP-1, ESP-2).
     */
    void recordEspWindow(unsigned depth, std::size_t spec_event_idx,
                         Cycle start, Cycle dur);

    /**
     * Start a counter series over @p names (the sampler's frozen,
     * sorted counter names). Every counter is zero when the sampler
     * is constructed, so the first interval is measured from zero.
     */
    void beginCounterSeries(const std::vector<std::string> &names);

    /**
     * One absolute counter snapshot of the series: the interval since
     * the previous snapshot becomes one point per derived metric
     * (`interval.ipc`, `interval.esp_occupancy`, `interval.l1i_mpki`,
     * `interval.l1d_miss_rate`) at the snapshot's cycle. A final
     * snapshot equal to the previous one adds no interval. Points are
     * buffered (they are tiny) and emitted after the event slices.
     */
    void onCounterSnapshot(const TelemetrySnapshot &snap);

    /** Run metadata stamped into the trace header. */
    void setRunInfo(const std::string &config_name,
                    const std::string &workload_name);

    /**
     * Record at most @p max_events events (0 = unlimited). Events
     * beyond the cap are dropped and counted; finalizing the trace
     * warns on stderr when anything was dropped.
     */
    void setEventLimit(std::size_t max_events);

    /** Events dropped by the event limit so far. */
    std::size_t droppedEvents() const { return droppedEvents_; }

    std::size_t numEvents() const
    {
        return flushedEvents_ + events_.size();
    }
    std::size_t numStalls() const
    {
        return flushedStalls_ + stalls_.size();
    }
    std::size_t numEspWindows() const
    {
        return flushedWindows_ + windows_.size();
    }

    /**
     * Begin streaming the trace to @p path: the header is written now
     * and each completed event record is appended as the run
     * progresses. Finish with closeStream(). @return false on I/O.
     */
    bool streamTo(const std::string &path);

    /**
     * Flush any unwritten records, the interval counter tracks and
     * the trace footer, then close the stream. @return false on I/O.
     */
    bool closeStream();

  private:
    struct EventRecord
    {
        RequestSpan span;
        std::uint32_t stallCount = 0;
        std::uint32_t espWindows = 0;
    };

    struct StallSpan
    {
        CycleBucket bucket = CycleBucket::IcacheMiss;
        std::size_t eventIdx = 0;
        Cycle start = 0;
        Cycle dur = 0;
    };

    struct EspSpan
    {
        unsigned depth = 1;
        std::size_t specEventIdx = 0;
        std::size_t triggerEventIdx = 0;
        Cycle start = 0;
        Cycle dur = 0;
    };

    struct CounterSample
    {
        Cycle ts = 0;
        std::vector<std::pair<const char *, double>> values;
    };

    /** Series positions of the counters the interval tracks read
     *  (npos = not in this run's name set). */
    struct CounterIndex
    {
        std::size_t cycles, instrs, l1iMisses, l1dAccesses, l1dMisses,
            espCycles;
    };

    /** The event in flight: its index (one past the last span's) and
     *  the stall/ESP tallies its span will carry. */
    EventRecord pending_;
    std::vector<EventRecord> events_;
    std::vector<StallSpan> stalls_;
    std::vector<EspSpan> windows_;
    std::vector<CounterSample> counters_;
    CounterIndex counterIdx_{};
    std::vector<double> prevCounters_; //!< the series' last snapshot
    std::string configName_;
    std::string workloadName_;
    std::size_t eventLimit_ = 0;
    std::size_t droppedEvents_ = 0;

    /** Records already let go: streamed out, or only counted without
     *  a stream (still counted by numEvents()). */
    std::size_t flushedEvents_ = 0;
    std::size_t flushedStalls_ = 0;
    std::size_t flushedWindows_ = 0;

    struct Stream; //!< ofstream + JsonWriter (defined in the .cc)
    std::unique_ptr<Stream> stream_;

    /** True once the event limit is reached: later records drop. */
    bool
    full() const
    {
        return eventLimit_ > 0 && numEvents() >= eventLimit_;
    }

    void renderHeader(JsonWriter &w) const;
    void renderFooter(JsonWriter &w) const;
    void renderRecords(JsonWriter &w) const;
    void renderEvent(JsonWriter &w, const EventRecord &ev) const;
    void renderCounterSamples(JsonWriter &w) const;
    void warnDropped() const;
    bool flushRecords();
};

} // namespace espsim

#endif // ESPSIM_REPORT_TIMELINE_HH
