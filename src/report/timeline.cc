#include "report/timeline.hh"

#include <algorithm>
#include <fstream>
#include <limits>

#include "common/logging.hh"
#include "report/json_writer.hh"
#include "report/telemetry.hh"

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
EventTimeline::onSpan(const RequestSpan &span)
{
    EventRecord record = pending_;
    pending_ = EventRecord{};
    pending_.span.index = span.index + 1;
    if (full()) {
        ++droppedEvents_;
        return;
    }
    record.span = span;
    events_.push_back(record);
    flushRecords();
}

void
EventTimeline::recordStall(CycleBucket bucket, Cycle start, Cycle dur)
{
    if (full())
        return;
    StallSpan span;
    span.bucket = bucket;
    span.eventIdx = pending_.span.index;
    span.start = start;
    span.dur = dur;
    stalls_.push_back(span);
    ++pending_.stallCount;
}

void
EventTimeline::recordEspWindow(unsigned depth,
                               std::size_t spec_event_idx, Cycle start,
                               Cycle dur)
{
    if (full())
        return;
    EspSpan span;
    span.depth = depth;
    span.specEventIdx = spec_event_idx;
    span.triggerEventIdx = pending_.span.index;
    span.start = start;
    span.dur = dur;
    windows_.push_back(span);
    ++pending_.espWindows;
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

/** Trace rows: one pid, five named tids. */
constexpr int tracePid = 1;
constexpr int tidEvents = 1;
constexpr int tidStalls = 2;
constexpr int tidEsp = 3;
constexpr int tidAccounting = 4;
constexpr int tidIntervals = 5;

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

constexpr std::size_t npos = static_cast<std::size_t>(-1);

/** Position of @p name in sorted @p names, or npos. */
std::size_t
indexOf(const std::vector<std::string> &names, const char *name)
{
    const auto it = std::lower_bound(names.begin(), names.end(), name);
    if (it == names.end() || *it != name)
        return npos;
    return static_cast<std::size_t>(it - names.begin());
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

} // namespace

void
EventTimeline::beginCounterSeries(const std::vector<std::string> &names)
{
    counterIdx_ = {indexOf(names, "core.cycles"),
                   indexOf(names, "core.instructions"),
                   indexOf(names, "mem.l1i.misses"),
                   indexOf(names, "mem.l1d.accesses"),
                   indexOf(names, "mem.l1d.misses"),
                   indexOf(names, "core.cycle_bucket.esp_pre_exec")};
    prevCounters_.assign(names.size(), 0.0);
}

void
EventTimeline::onCounterSnapshot(const TelemetrySnapshot &snap)
{
    if (snap.isFinal && snap.values == prevCounters_)
        return;
    const auto delta = [&](std::size_t idx) {
        return idx == npos ? 0.0 : snap.values[idx] - prevCounters_[idx];
    };
    const CounterIndex &ix = counterIdx_;
    const double cycles = delta(ix.cycles);
    const double instrs = delta(ix.instrs);
    const double l1d_accesses = delta(ix.l1dAccesses);
    CounterSample sample;
    sample.ts = snap.cycle;
    if (cycles > 0) {
        sample.values.emplace_back("interval.ipc", instrs / cycles);
        if (ix.espCycles != npos) {
            sample.values.emplace_back("interval.esp_occupancy",
                                       delta(ix.espCycles) / cycles);
        }
    }
    if (instrs > 0 && ix.l1iMisses != npos) {
        sample.values.emplace_back(
            "interval.l1i_mpki", delta(ix.l1iMisses) / (instrs / 1000.0));
    }
    if (l1d_accesses > 0 && ix.l1dMisses != npos) {
        sample.values.emplace_back("interval.l1d_miss_rate",
                                   delta(ix.l1dMisses) / l1d_accesses);
    }
    if (!sample.values.empty())
        counters_.push_back(std::move(sample));
    prevCounters_ = snap.values;
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
    metadataRecord(w, "thread_name", tidIntervals, "interval stats");
}

void
EventTimeline::renderEvent(JsonWriter &w, const EventRecord &ev) const
{
    const RequestSpan &span = ev.span;

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
    w.key("stall_count").value(std::uint64_t{ev.stallCount});
    w.key("esp_windows").value(std::uint64_t{ev.espWindows});
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

void
EventTimeline::renderRecords(JsonWriter &w) const
{
    // Stalls and ESP windows are recorded in event order, so a cursor
    // walk puts each event's slices after it without indexing; the
    // final walk emits any recorded after the last span.
    std::size_t stall_cursor = 0;
    std::size_t window_cursor = 0;
    const auto slicesUpTo = [&](std::size_t last_event) {
        while (stall_cursor < stalls_.size() &&
               stalls_[stall_cursor].eventIdx <= last_event) {
            const StallSpan &st = stalls_[stall_cursor++];
            w.beginObject();
            w.key("name").value(cycleBucketName(st.bucket));
            sliceCommon(w, "stall", st.start, st.dur, tidStalls);
            w.key("args")
                .beginObject()
                .key("event")
                .value(std::uint64_t{st.eventIdx})
                .endObject();
            w.endObject();
        }
        while (window_cursor < windows_.size() &&
               windows_[window_cursor].triggerEventIdx <= last_event) {
            const EspSpan &sp = windows_[window_cursor++];
            w.beginObject();
            w.key("name").value("ESP-" + std::to_string(sp.depth));
            sliceCommon(w, "esp", sp.start, sp.dur, tidEsp);
            w.key("args").beginObject();
            w.key("depth").value(sp.depth);
            w.key("pre_executed_event")
                .value(std::uint64_t{sp.specEventIdx});
            w.key("triggering_event")
                .value(std::uint64_t{sp.triggerEventIdx});
            w.endObject();
            w.endObject();
        }
    };
    for (const EventRecord &ev : events_) {
        renderEvent(w, ev);
        slicesUpTo(ev.span.index);
    }
    slicesUpTo(std::numeric_limits<std::size_t>::max());
}

void
EventTimeline::renderCounterSamples(JsonWriter &w) const
{
    // One record per metric per sample: each metric gets its own
    // Perfetto counter track on the interval row.
    for (const CounterSample &sample : counters_) {
        for (const auto &[name, value] : sample.values) {
            w.beginObject();
            w.key("name").value(name);
            w.key("cat").value("interval");
            w.key("ph").value("C");
            w.key("ts").value(std::uint64_t{sample.ts});
            w.key("pid").value(tracePid);
            w.key("tid").value(tidIntervals);
            w.key("args")
                .beginObject()
                .key("value")
                .value(value)
                .endObject();
            w.endObject();
        }
    }
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
EventTimeline::flushRecords()
{
    if (stream_)
        renderRecords(stream_->writer);
    flushedEvents_ += events_.size();
    flushedStalls_ += stalls_.size();
    flushedWindows_ += windows_.size();
    events_.clear();
    stalls_.clear();
    windows_.clear();
    return !stream_ || stream_->drainTo();
}

bool
EventTimeline::closeStream()
{
    if (!stream_)
        return false;
    warnDropped();
    bool ok = flushRecords();
    renderCounterSamples(stream_->writer);
    renderFooter(stream_->writer);
    ok = stream_->drainTo() && ok;
    stream_->out.close();
    ok = static_cast<bool>(stream_->out) && ok;
    stream_.reset();
    return ok;
}

} // namespace espsim
