/**
 * @file
 * Opt-in per-event timeline recorder with Chrome trace_event export.
 *
 * When attached to a run (espsim run --timeline out.json), the
 * recorder is one of the core's span sinks: each retired event's
 * RequestSpan (report/spans.hh) supplies its queue/dispatch/retire
 * cycles, cycle-bucket blame and prefetch-issue tallies. Only the
 * intra-event detail comes from elsewhere: the core reports every
 * stall it hits (I-miss bubble, ROB-head data miss, LSQ full,
 * mispredict flush, BTB miss) and the ESP controller each
 * pre-execution window it spends inside a stall shadow. Those land in
 * a pending record that the event's span then closes.
 * writeChromeTrace() serializes it all in the Chrome trace_event JSON
 * format, which loads directly in Perfetto (https://ui.perfetto.dev)
 * or chrome://tracing — fitting, given the paper's workloads are
 * Chromium's renderer events.
 *
 * Cycle-to-time mapping: 1 simulated cycle = 1 microsecond of trace
 * time (`ts`/`dur` are microseconds in the trace_event spec), so a
 * slice's `dur` reads directly as its cycle count.
 *
 * Memory behaviour: by default the recorder buffers every record and
 * renderChromeTrace() serializes them in one pass. Two controls keep
 * long runs bounded:
 *  - streamTo(path) switches to incremental export — each event's
 *    record group (slices, stalls, ESP windows) is serialized and
 *    written as soon as its span arrives, so the buffer holds at most
 *    one event's records. Both modes produce byte-identical files.
 *  - setEventLimit(n) caps the recorded events at n; later events are
 *    dropped (and counted) instead of silently ballooning RSS, with a
 *    warning to stderr when the trace is finalized.
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

/** Why the core sat idle (timeline view; richer than StallKind). */
enum class TimelineStall : std::uint8_t
{
    InstrMiss,  //!< fetch bubble beyond the hidden L1 latency
    DataMiss,   //!< load miss shadow (ROB-head / MLP window)
    LsqFull,    //!< oldest memory op blocking a full LSQ
    Mispredict, //!< branch mispredict flush
    BtbMiss,    //!< taken branch with no/old BTB target
};

const char *timelineStallName(TimelineStall kind);

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

    /** One stall of @p kind, @p dur cycles starting at @p start. */
    void recordStall(TimelineStall kind, Cycle start, Cycle dur);

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
     * buffered (they are tiny) and emitted after the event slices in
     * both buffered and streaming modes.
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

    /** True between streamTo() and closeStream(). */
    bool streaming() const { return stream_ != nullptr; }

    /**
     * Flush any unwritten records, the interval counter tracks and
     * the trace footer, then close the stream. @return false on I/O.
     */
    bool closeStream();

    /** Serialize as Chrome trace_event JSON (buffered mode only). */
    std::string renderChromeTrace() const;

    /** Write renderChromeTrace() to @p path. @return false on I/O. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct EventRecord
    {
        RequestSpan span;
        Cycle stallCycles[5] = {0, 0, 0, 0, 0}; //!< per TimelineStall
        std::uint32_t stallCount = 0;
        std::uint32_t espWindows = 0;
    };

    struct StallSpan
    {
        TimelineStall kind;
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

    //!< Records already streamed out (still counted by numEvents()).
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
