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
 * shadow. The trace is Chrome trace_event JSON, which loads directly
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
 * Memory behaviour: the recorder writes through. streamTo(path)
 * writes the header; each stall and ESP window is written as it is
 * recorded, and each span writes its event's slices and drains the
 * writer to the file, so the buffer holds at most one event's
 * records. Records therefore land in call order: an event's stall
 * slices precede its event slice. closeStream() writes the footer.
 * Without a stream the records are only counted (numEvents() and
 * friends). setEventLimit(n) caps the recorded events at n; later
 * events are dropped (and counted) instead of silently ballooning the
 * file, with a warning to stderr when the trace is closed.
 *
 * Interval rates (IPC, MPKI, miss rates, ESP occupancy over time) are
 * not drawn here: they come from the telemetry stream
 * (report/telemetry.hh, `--telemetry`) and tools/plot_intervals.py.
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

#include "common/types.hh"
#include "report/spans.hh"

namespace espsim
{

class JsonWriter;

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
     * One retired event: writes its event slice (carrying the stall
     * and ESP-window tallies recorded since the previous span) and
     * its execute slice. Its cycle buckets are exported both as a
     * Perfetto counter track and as args on the event slice, so
     * stalls are explained visually.
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

    std::size_t numEvents() const { return numEvents_; }
    std::size_t numStalls() const { return numStalls_; }
    std::size_t numEspWindows() const { return numEspWindows_; }

    /**
     * Begin streaming the trace to @p path: the header is written now
     * and each record is appended as the run progresses. Finish with
     * closeStream(). @return false on I/O.
     */
    bool streamTo(const std::string &path);

    /**
     * Write the records still buffered and the trace footer, then
     * close the stream. @return false on I/O.
     */
    bool closeStream();

  private:
    /** The event in flight: its index (one past the last span's) and
     *  the stall/ESP tallies its span will carry. */
    std::size_t eventIdx_ = 0;
    std::uint32_t eventStalls_ = 0;
    std::uint32_t eventEspWindows_ = 0;

    std::size_t numEvents_ = 0;
    std::size_t numStalls_ = 0;
    std::size_t numEspWindows_ = 0;
    std::string configName_;
    std::string workloadName_;
    std::size_t eventLimit_ = 0;
    std::size_t droppedEvents_ = 0;

    struct Stream; //!< ofstream + JsonWriter (defined in the .cc)
    std::unique_ptr<Stream> stream_;

    /** True once the event limit is reached: later records drop. */
    bool
    full() const
    {
        return eventLimit_ > 0 && numEvents_ >= eventLimit_;
    }

    void renderHeader(JsonWriter &w) const;
    void renderFooter(JsonWriter &w) const;
    void warnDropped() const;
};

} // namespace espsim

#endif // ESPSIM_REPORT_TIMELINE_HH
