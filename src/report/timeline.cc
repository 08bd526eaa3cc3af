#include "report/timeline.hh"

#include <fstream>

#include "common/logging.hh"
#include "report/json_writer.hh"

namespace espsim
{

/** Streaming state: the open file plus the comma-tracking writer. */
struct EventTimeline::Stream
{
    std::ofstream out;
    JsonWriter writer;

    bool
    drainTo()
    {
        const std::string text = writer.drain();
        out.write(text.data(),
                  static_cast<std::streamsize>(text.size()));
        return static_cast<bool>(out);
    }
};

EventTimeline::EventTimeline() = default;

EventTimeline::~EventTimeline()
{
    // An abandoned stream still holds an open scope; close it so the
    // file is at least valid-prefix JSON, but don't warn — the owner
    // already reported whatever error abandoned it.
    if (stream_)
        closeStream();
}

void
EventTimeline::setRunInfo(const std::string &config_name,
                          const std::string &workload_name)
{
    configName_ = config_name;
    workloadName_ = workload_name;
}

void
EventTimeline::setEventLimit(std::size_t max_events)
{
    eventLimit_ = max_events;
}

namespace
{

/** Trace rows: one pid, four named tids. */
constexpr int tracePid = 1;
constexpr int tidEvents = 1;
constexpr int tidStalls = 2;
constexpr int tidEsp = 3;
constexpr int tidAccounting = 4;

void
metadataRecord(JsonWriter &w, const char *name, int tid,
               const char *value)
{
    w.beginObject();
    w.key("name").value(name);
    w.key("ph").value("M");
    w.key("pid").value(tracePid);
    if (tid >= 0)
        w.key("tid").value(tid);
    w.key("args").beginObject().key("name").value(value).endObject();
    w.endObject();
}

void
sliceCommon(JsonWriter &w, const char *cat, Cycle ts, Cycle dur,
            int tid)
{
    w.key("cat").value(cat);
    w.key("ph").value("X");
    w.key("ts").value(std::uint64_t{ts});
    w.key("dur").value(std::uint64_t{dur});
    w.key("pid").value(tracePid);
    w.key("tid").value(tid);
}

/** The span's cycle buckets as a {name: cycles} object. */
void
bucketArgs(JsonWriter &w, const RequestSpan &span)
{
    w.beginObject();
    for (unsigned b = 0; b < numCycleBuckets; ++b) {
        w.key(cycleBucketName(static_cast<CycleBucket>(b)))
            .value(std::uint64_t{span.buckets[b]});
    }
    w.endObject();
}

/**
 * One retired event's records: the event slice carrying its
 * @p stalls and @p esp_windows tallies, its cycle-bucket counter
 * sample and its execute slice.
 */
void
renderEvent(JsonWriter &w, const RequestSpan &span, std::uint32_t stalls,
            std::uint32_t esp_windows)
{
    // The full event span: queue-head to retire.
    w.beginObject();
    w.key("name").value("event " + std::to_string(span.index));
    sliceCommon(w, "event", span.arrival, span.retire - span.arrival,
                tidEvents);
    w.key("args").beginObject();
    w.key("index").value(std::uint64_t{span.index});
    w.key("queued_cycle").value(std::uint64_t{span.arrival});
    w.key("dispatch_cycle").value(std::uint64_t{span.dispatch});
    w.key("retire_cycle").value(std::uint64_t{span.retire});
    w.key("instructions").value(std::uint64_t{span.instructions});
    w.key("stall_count").value(std::uint64_t{stalls});
    w.key("esp_windows").value(std::uint64_t{esp_windows});
    w.key("cycle_buckets");
    bucketArgs(w, span);
    w.key("prefetches").beginObject();
    for (unsigned s = 0; s < numPrefetchSources; ++s) {
        w.key(prefetchSourceName(static_cast<PrefetchSource>(s)))
            .value(std::uint64_t{span.prefetch[s].issued});
    }
    w.endObject();
    w.endObject();
    w.endObject();

    // Counter track: the event's cycle-accounting breakdown as a
    // stacked Perfetto counter sampled at queue time.
    w.beginObject();
    w.key("name").value("cycle buckets");
    w.key("cat").value("accounting");
    w.key("ph").value("C");
    w.key("ts").value(std::uint64_t{span.arrival});
    w.key("pid").value(tracePid);
    w.key("tid").value(tidAccounting);
    w.key("args");
    bucketArgs(w, span);
    w.endObject();

    // Nested execute slice: dispatch to retire (the looper-gap
    // prefix of the outer slice is the queue/dequeue overhead).
    w.beginObject();
    w.key("name").value("execute");
    sliceCommon(w, "event", span.dispatch, span.retire - span.dispatch,
                tidEvents);
    w.key("args")
        .beginObject()
        .key("index")
        .value(std::uint64_t{span.index})
        .endObject();
    w.endObject();
}

} // namespace

void
EventTimeline::onSpan(const RequestSpan &span)
{
    const std::uint32_t stalls = eventStalls_;
    const std::uint32_t esp_windows = eventEspWindows_;
    eventIdx_ = span.index + 1;
    eventStalls_ = 0;
    eventEspWindows_ = 0;
    if (full()) {
        ++droppedEvents_;
        return;
    }
    ++numEvents_;
    if (stream_) {
        renderEvent(stream_->writer, span, stalls, esp_windows);
        stream_->drainTo();
    }
}

void
EventTimeline::recordStall(CycleBucket bucket, Cycle start, Cycle dur)
{
    if (full())
        return;
    ++numStalls_;
    ++eventStalls_;
    if (!stream_)
        return;
    JsonWriter &w = stream_->writer;
    w.beginObject();
    w.key("name").value(cycleBucketName(bucket));
    sliceCommon(w, "stall", start, dur, tidStalls);
    w.key("args")
        .beginObject()
        .key("event")
        .value(std::uint64_t{eventIdx_})
        .endObject();
    w.endObject();
}

void
EventTimeline::recordEspWindow(unsigned depth,
                               std::size_t spec_event_idx, Cycle start,
                               Cycle dur)
{
    if (full())
        return;
    ++numEspWindows_;
    ++eventEspWindows_;
    if (!stream_)
        return;
    JsonWriter &w = stream_->writer;
    w.beginObject();
    w.key("name").value("ESP-" + std::to_string(depth));
    sliceCommon(w, "esp", start, dur, tidEsp);
    w.key("args").beginObject();
    w.key("depth").value(depth);
    w.key("pre_executed_event").value(std::uint64_t{spec_event_idx});
    w.key("triggering_event").value(std::uint64_t{eventIdx_});
    w.endObject();
    w.endObject();
}

void
EventTimeline::renderHeader(JsonWriter &w) const
{
    w.beginObject();
    w.key("traceEvents").beginArray();

    metadataRecord(w, "process_name", -1, "espsim");
    metadataRecord(w, "thread_name", tidEvents, "events");
    metadataRecord(w, "thread_name", tidStalls, "stalls");
    metadataRecord(w, "thread_name", tidEsp, "esp pre-execution");
    metadataRecord(w, "thread_name", tidAccounting, "cycle accounting");
}

void
EventTimeline::renderFooter(JsonWriter &w) const
{
    w.endArray();
    w.key("displayTimeUnit").value("ms");
    w.key("otherData").beginObject();
    w.key("tool").value("espsim");
    w.key("timeline_format_version")
        .value(std::uint64_t{timelineFormatVersion});
    w.key("config").value(configName_);
    w.key("workload").value(workloadName_);
    w.key("cycles_per_us").value(std::uint64_t{1});
    if (droppedEvents_ > 0)
        w.key("dropped_events").value(std::uint64_t{droppedEvents_});
    w.endObject();
    w.endObject();
}

void
EventTimeline::warnDropped() const
{
    if (droppedEvents_ > 0) {
        warn("timeline: event limit %zu reached; dropped %zu later "
             "events",
             eventLimit_, droppedEvents_);
    }
}

bool
EventTimeline::streamTo(const std::string &path)
{
    if (stream_)
        panic("EventTimeline: streamTo() while already streaming");
    stream_ = std::make_unique<Stream>();
    stream_->out.open(path, std::ios::binary);
    if (!stream_->out) {
        stream_.reset();
        return false;
    }
    renderHeader(stream_->writer);
    return stream_->drainTo();
}

bool
EventTimeline::closeStream()
{
    if (!stream_)
        return false;
    warnDropped();
    renderFooter(stream_->writer);
    bool ok = stream_->drainTo();
    stream_->out.close();
    ok = static_cast<bool>(stream_->out) && ok;
    stream_.reset();
    return ok;
}

} // namespace espsim
