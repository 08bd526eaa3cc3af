#include "report/telemetry.hh"

#include <utility>

#include "report/json_writer.hh"

namespace espsim
{

namespace
{

/** One snapshot line of a telemetry block. */
std::string
renderSnapshotLine(const TelemetrySnapshot &snap)
{
    JsonWriter w;
    w.beginObject();
    w.key("seq").value(snap.seq);
    w.key("cycle").value(snap.cycle);
    w.key("events").value(snap.events);
    if (snap.isFinal)
        w.key("final").value(true);
    w.key("values");
    w.beginArray();
    for (const double v : snap.values)
        w.value(v);
    w.endArray();
    w.endObject();
    return w.drain();
}

} // namespace

// --------------------------------------------------------------------
// TelemetryStream
// --------------------------------------------------------------------

TelemetryStream::~TelemetryStream()
{
    close();
}

bool
TelemetryStream::openFile(const std::string &path)
{
    close();
    file_ = std::fopen(path.c_str(), "wb");
    return file_ != nullptr;
}

void
TelemetryStream::writeLine(const std::string &line)
{
    if (sink_ != nullptr) {
        sink_->append(line);
        sink_->push_back('\n');
    }
    if (file_ != nullptr) {
        if (std::fwrite(line.data(), 1, line.size(), file_) !=
                line.size() ||
            std::fputc('\n', file_) == EOF)
            writeFailed_ = true;
        // Flush per record: a live tail (or a post-crash read) must
        // only ever see whole lines.
        std::fflush(file_);
    }
    ++lines_;
}

bool
TelemetryStream::close()
{
    bool ok = !writeFailed_;
    if (file_ != nullptr) {
        if (std::fclose(file_) != 0)
            ok = false;
        file_ = nullptr;
    }
    return ok;
}

// --------------------------------------------------------------------
// CounterSampler
// --------------------------------------------------------------------

CounterSampler::CounterSampler(const StatRegistry &reg,
                               LiveTelemetry &live,
                               const std::string &config,
                               const std::string &workload,
                               const std::string &configHash)
    : live_(live), period_(live.periodCycles)
{
    // Freeze the counter name set now: stats registered after the run
    // (handler breakdown, derived metrics) never appear, so every
    // snapshot reads the same names. Interning the getters makes each
    // snapshot a plain walk over them — no per-sample string maps.
    getters_.reserve(reg.size());
    for (StatRegistry::CounterHandle &h : reg.counterHandles()) {
        names_.push_back(std::move(h.name));
        getters_.push_back(std::move(h.getter));
    }
    snap_.values.resize(getters_.size(), 0.0);
    nextCycle_ = period_;
    writeHeader(config, workload, configHash);
}

void
CounterSampler::writeHeader(const std::string &config,
                            const std::string &workload,
                            const std::string &configHash)
{
    if (live_.stream == nullptr)
        return;
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("espsim-telemetry-stream");
    w.key("format_version")
        .value(static_cast<std::uint64_t>(telemetryStreamFormatVersion));
    w.key("config").value(config);
    w.key("workload").value(workload);
    w.key("config_hash").value(configHash);
    w.key("period_cycles").value(period_);
    w.key("names");
    w.beginArray();
    for (const std::string &name : names_)
        w.value(name);
    w.endArray();
    w.endObject();
    live_.stream->writeLine(w.drain());
}

void
CounterSampler::sample(Cycle now, std::uint64_t events_retired,
                       bool final_)
{
    ++snap_.seq;
    snap_.cycle = now;
    snap_.events = events_retired;
    snap_.isFinal = final_;
    for (std::size_t i = 0; i < getters_.size(); ++i)
        snap_.values[i] = getters_[i]();
    ++live_.snapshots;
    if (live_.stream != nullptr)
        live_.stream->writeLine(renderSnapshotLine(snap_));
}

void
CounterSampler::onSpan(const RequestSpan &span)
{
    if (finalized_)
        return;
    const Cycle now = span.retire;
    if (period_ == 0 || now < nextCycle_)
        return;
    // Re-anchor the grid at the first step past the point reached, so
    // an event that spans several periods yields one (larger) interval
    // instead of a burst of stale samples.
    nextCycle_ += ((now - nextCycle_) / period_ + 1) * period_;
    sample(now, span.index + 1, /*final_=*/false);
}

void
CounterSampler::finalize(Cycle now, std::uint64_t events_retired)
{
    if (finalized_)
        return;
    finalized_ = true;
    // The closing snapshot is unconditional: its values are read from
    // the same getters the registry snapshot uses, so the last JSONL
    // line equals the end-of-run counter values exactly.
    sample(now, events_retired, /*final_=*/true);
}

} // namespace espsim
