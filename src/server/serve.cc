#include "server/serve.hh"

#include <memory>
#include <utility>

#include "common/logging.hh"
#include "common/version.hh"
#include "cpu/ooo_core.hh"
#include "report/json_writer.hh"
#include "report/telemetry.hh"
#include "workload/streaming.hh"

namespace espsim
{

ServeReport
runServe(const ServerProfile &profile,
         const std::vector<SimConfig> &configs,
         const ServeOptions &opts)
{
    if (configs.empty())
        panic("runServe: no configs");

    ServerProfile p = profile;
    if (opts.events > 0)
        p.app.numEvents = opts.events;

    ServeReport report;
    report.profile = p.name;
    report.profileDescription = p.description;
    report.events = p.app.numEvents;
    report.window = opts.window;
    report.reservoirCapacity = opts.reservoirCapacity;
    report.arrival = opts.arrival;
    report.spans = opts.spans;
    report.configHash = configsHash(configs);
    for (const SimConfig &c : configs)
        report.configNames.push_back(c.name);

    // Live telemetry: one record and stream span the whole sweep
    // (each config opens its own JSONL block).
    std::unique_ptr<LiveTelemetry> live;
    if (opts.telemetry.any()) {
        live = std::make_unique<LiveTelemetry>();
        live->periodCycles = opts.telemetry.periodCycles;
        live->configHash = report.configHash;
        live->stream = opts.telemetry.stream;
    }

    for (const SimConfig &config : configs) {
        // A fresh streaming workload per config: a stream has one
        // reader, and each replay starts at event 0 with an empty
        // cache, so resident traces (and thus peak RSS) don't
        // accumulate across configs.
        StreamingWorkload workload(std::make_unique<ServerTraceSource>(p),
                                   opts.window);
        ServePacer pacer(makeArrivalProcess(opts.arrival),
                         opts.reservoirCapacity, opts.arrival.seed,
                         p.app.numHandlerTypes);
        RunInstrumentation inst;
        inst.pacer = &pacer;

        std::unique_ptr<SpanCollector> spans;
        if (opts.spans.enabled) {
            spans = std::make_unique<SpanCollector>(opts.spans.worstK);
            inst.spans = spans.get();
        }

        inst.telemetry = live.get();

        const SimResult r = Simulator(config).run(workload, inst);

        ServeCell cell;
        cell.config = config.name;
        cell.cycles = r.cycles;
        cell.ipc = r.ipc;
        cell.idleCycles = r.core.bucketCycles[static_cast<std::size_t>(
            CycleBucket::Idle)];
        cell.events = pacer.events();
        cell.queue = summarizeLatency(pacer.queueLatency());
        cell.service = summarizeLatency(pacer.serviceLatency());
        cell.total = summarizeLatency(pacer.totalLatency());
        cell.histogram.assign(pacer.histogram().begin(),
                              pacer.histogram().end());
        for (std::size_t h = 0; h < pacer.handlers().size(); ++h) {
            const HandlerLatency &hl = pacer.handlers()[h];
            if (hl.events == 0)
                continue;
            HandlerLatencyRow row;
            row.handler = static_cast<std::uint32_t>(h);
            row.events = hl.events;
            row.queue = summarizeLatency(hl.queue);
            row.service = summarizeLatency(hl.service);
            cell.handlers.push_back(row);
        }
        if (spans) {
            cell.spansRecorded = spans->spansRecorded();
            cell.worstSpans = spans->worstSpans();
        }
        report.cells.push_back(std::move(cell));
    }

    if (live)
        report.telemetrySnapshots = live->snapshots;
    return report;
}

namespace
{

void
writeLatencyClass(JsonWriter &w, const char *name,
                  const LatencySummary &s)
{
    w.key(name).beginObject();
    w.key("count").value(std::uint64_t{s.count});
    w.key("mean").value(s.mean);
    w.key("max").value(s.max);
    w.key("p50").value(s.p50);
    w.key("p95").value(s.p95);
    w.key("p99").value(s.p99);
    w.key("p999").value(s.p999);
    w.endObject();
}

void
writeHandlerRows(JsonWriter &w, const ServeCell &cell)
{
    w.key("handlers").beginArray();
    for (const HandlerLatencyRow &row : cell.handlers) {
        w.beginObject();
        w.key("handler").value(std::uint64_t{row.handler});
        w.key("events").value(std::uint64_t{row.events});
        writeLatencyClass(w, "queue", row.queue);
        writeLatencyClass(w, "service", row.service);
        w.endObject();
    }
    w.endArray();
}

void
writeManifestCommon(JsonWriter &w, const ArtifactManifest &manifest,
                    const ServeReport &report)
{
    w.key("source").value(manifest.source);
    w.key("tool_version")
        .value(manifest.toolVersion.empty() ? versionString()
                                            : manifest.toolVersion);
    w.key("build_type")
        .value(manifest.buildType.empty() ? buildTypeString()
                                          : manifest.buildType);
    w.key("config_hash").value(report.configHash);
    w.key("profile").value(report.profile);
    w.key("events").value(std::uint64_t{report.events});
    w.key("window").value(std::uint64_t{report.window});
    w.key("reservoir_capacity")
        .value(std::uint64_t{report.reservoirCapacity});
    w.key("arrival").beginObject();
    w.key("mean_gap_cycles").value(report.arrival.meanGapCycles);
    w.key("seed").value(std::uint64_t{report.arrival.seed});
    w.endObject();
    w.key("configs").beginArray();
    for (const std::string &name : report.configNames)
        w.value(name);
    w.endArray();
}

void
writeSpanRecord(JsonWriter &w, const RequestSpan &span)
{
    w.beginObject();
    w.key("event").value(std::uint64_t{span.index});
    w.key("handler").value(std::uint64_t{span.handlerType});
    w.key("arrival").value(std::uint64_t{span.arrival});
    w.key("dispatch").value(std::uint64_t{span.dispatch});
    w.key("retire").value(std::uint64_t{span.retire});
    w.key("queue_cycles").value(std::uint64_t{span.queueCycles()});
    w.key("service_cycles").value(std::uint64_t{span.serviceCycles()});
    w.key("total_cycles").value(std::uint64_t{span.totalCycles()});
    w.key("span_cycles").value(std::uint64_t{span.spanCycles()});
    w.key("instructions").value(std::uint64_t{span.instructions});
    w.key("buckets").beginObject();
    for (unsigned b = 0; b < numCycleBuckets; ++b) {
        w.key(cycleBucketName(static_cast<CycleBucket>(b)))
            .value(std::uint64_t{span.buckets[b]});
    }
    w.endObject();
    w.key("esp").beginObject();
    w.key("pre_exec_cycles")
        .value(std::uint64_t{span.espPreExecCycles()});
    w.key("prefetch").beginObject();
    for (unsigned s = 0; s < numPrefetchSources; ++s) {
        const SpanPrefetchDelta &d = span.prefetch[s];
        w.key(prefetchSourceName(static_cast<PrefetchSource>(s)))
            .beginObject();
        w.key("issued").value(std::uint64_t{d.issued});
        w.key("timely").value(std::uint64_t{d.timely});
        w.key("late").value(std::uint64_t{d.late});
        w.key("harmful").value(std::uint64_t{d.harmful});
        w.endObject();
    }
    w.endObject();
    w.endObject();
    w.endObject();
}

} // namespace

std::string
renderLatencyArtifactJson(const ArtifactManifest &manifest,
                          const ServeReport &report)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("espsim-latency-artifact");
    w.key("format_version").value(std::uint64_t{artifactFormatVersion});

    w.key("manifest").beginObject();
    writeManifestCommon(w, manifest, report);
    w.endObject();

    w.key("results").beginArray();
    for (const ServeCell &cell : report.cells) {
        w.beginObject();
        w.key("config").value(cell.config);
        w.key("cycles").value(std::uint64_t{cell.cycles});
        w.key("ipc").value(cell.ipc);
        w.key("idle_cycles").value(std::uint64_t{cell.idleCycles});
        w.key("events").value(std::uint64_t{cell.events});
        w.key("latency").beginObject();
        writeLatencyClass(w, "queue", cell.queue);
        writeLatencyClass(w, "service", cell.service);
        writeLatencyClass(w, "total", cell.total);
        w.endObject();
        writeHandlerRows(w, cell);
        w.key("histogram").beginObject();
        w.key("scale").value("pow2_cycles");
        w.key("buckets").beginArray();
        for (const std::uint64_t count : cell.histogram)
            w.value(std::uint64_t{count});
        w.endArray();
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
renderSpanArtifactJson(const ArtifactManifest &manifest,
                       const ServeReport &report)
{
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("espsim-span-artifact");
    w.key("format_version").value(std::uint64_t{artifactFormatVersion});

    w.key("manifest").beginObject();
    writeManifestCommon(w, manifest, report);
    w.key("worst_k").value(std::uint64_t{report.spans.worstK});
    w.endObject();

    w.key("results").beginArray();
    for (const ServeCell &cell : report.cells) {
        w.beginObject();
        w.key("config").value(cell.config);
        w.key("cycles").value(std::uint64_t{cell.cycles});
        w.key("events").value(std::uint64_t{cell.events});
        w.key("spans_recorded")
            .value(std::uint64_t{cell.spansRecorded});
        w.key("worst").beginArray();
        for (const RequestSpan &span : cell.worstSpans)
            writeSpanRecord(w, span);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace espsim
