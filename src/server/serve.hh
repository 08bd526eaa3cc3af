/**
 * @file
 * The serve driver: stream a request-serving profile through the
 * simulator under Poisson arrivals, once per config, and collect
 * tail-latency reports.
 *
 * One ServeCell per config carries the architectural headlines plus
 * the queue/service/total latency summaries and a power-of-two
 * total-latency histogram. renderLatencyArtifactJson() writes the
 * versioned `espsim-latency-artifact` (validated by
 * check/artifact_check) — deterministic and free of wall-clock facts,
 * like every other espsim artifact.
 *
 * ServeTelemetryOptions arms the live side of a sweep: one JSONL
 * snapshot stream spanning the whole sweep, a block per config. It
 * never reaches the artifacts.
 */

#ifndef ESPSIM_SERVER_SERVE_HH
#define ESPSIM_SERVER_SERVE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "report/artifact.hh"
#include "report/spans.hh"
#include "server/arrival.hh"
#include "server/latency.hh"
#include "server/profile.hh"
#include "sim/simulator.hh"

namespace espsim
{

class TelemetryStream;

/** Span-tracing knobs of one serve run (see report/spans.hh). */
struct ServeSpanOptions
{
    bool enabled = false;
    /** Worst-request table size in the span artifact. */
    std::size_t worstK = 8;
};

/**
 * Live-telemetry knobs of one serve run (see report/telemetry.hh).
 * The JSONL snapshot stream is optional and never perturbs the
 * deterministic artifacts.
 */
struct ServeTelemetryOptions
{
    /** Snapshot pacing in simulated cycles; 0 still takes each
     *  config's final snapshot. */
    Cycle periodCycles = 0;
    /** Open JSONL snapshot stream (nullptr = no stream); the caller
     *  opens and closes it around runServe. */
    TelemetryStream *stream = nullptr;

    bool
    any() const
    {
        return periodCycles > 0 || stream != nullptr;
    }
};

/** Knobs of one serve run (applied identically to every config). */
struct ServeOptions
{
    /** Override profile.app.numEvents when non-zero. */
    std::size_t events = 0;
    /** Traces each config's stream keeps resident (>= 4). */
    std::size_t window = 16;
    /** Latency reservoir capacity (0 = buffer every sample). */
    std::size_t reservoirCapacity = 4096;
    ArrivalConfig arrival;
    ServeSpanOptions spans;
    ServeTelemetryOptions telemetry;
};

/** One handler type's latency breakdown (span/latency artifacts). */
struct HandlerLatencyRow
{
    std::uint32_t handler = 0;
    std::uint64_t events = 0;
    LatencySummary queue;
    LatencySummary service;
};

/** Results of one (profile, config) serve run. */
struct ServeCell
{
    std::string config;
    Cycle cycles = 0;
    double ipc = 0.0;
    Cycle idleCycles = 0;
    std::uint64_t events = 0;
    LatencySummary queue;
    LatencySummary service;
    LatencySummary total;
    std::vector<std::uint64_t> histogram;
    /** Per-handler queue/service breakdown (handlers that served). */
    std::vector<HandlerLatencyRow> handlers;

    // --- span tracing (populated when opts.spans.enabled) ----------
    std::uint64_t spansRecorded = 0;
    std::vector<RequestSpan> worstSpans;
};

/** A full serve sweep over one profile. */
struct ServeReport
{
    std::string profile;
    std::string profileDescription;
    std::size_t events = 0;
    std::size_t window = 0;
    std::size_t reservoirCapacity = 0;
    ArrivalConfig arrival;
    ServeSpanOptions spans;
    std::vector<std::string> configNames;
    std::string configHash;
    std::vector<ServeCell> cells;

    /** Telemetry snapshots streamed across the sweep (populated when
     *  telemetry.any()). */
    std::uint64_t telemetrySnapshots = 0;
};

/**
 * Run @p profile under every config in @p configs (serially; each
 * config replays the identical request stream and arrival schedule).
 */
ServeReport runServe(const ServerProfile &profile,
                     const std::vector<SimConfig> &configs,
                     const ServeOptions &opts);

/** Render the versioned espsim-latency-artifact JSON. */
std::string renderLatencyArtifactJson(const ArtifactManifest &manifest,
                                      const ServeReport &report);

/**
 * Render the versioned espsim-span-artifact JSON: per config, the
 * worst-K tail requests decomposed into queue vs service, per-bucket
 * cycle blame and ESP prefetch deltas. Requires opts.spans.enabled
 * runs.
 */
std::string renderSpanArtifactJson(const ArtifactManifest &manifest,
                                   const ServeReport &report);

} // namespace espsim

#endif // ESPSIM_SERVER_SERVE_HH
