/**
 * @file
 * Counter sampling and the live telemetry stream.
 *
 * Artifacts and span tables land after the run ends.
 * Phase plots and a multi-minute `espsim serve` run streaming
 * millions of events need counters *during* the run. The telemetry
 * stream is the one counter time series, in three pieces:
 *
 *  - **CounterSampler** — the one counter sampler. It freezes the
 *    StatRegistry's counter names at construction (every counter is
 *    zero then) and, as a span sink of the core, takes *absolute*
 *    counter snapshots at event-retire boundaries (the only points
 *    where the stat surface is consistent): whenever a cycle grid
 *    point was crossed, and always once more at finalize. Counters
 *    are monotone across snapshots, and the final snapshot equals
 *    the end-of-run registry values exactly (uint64 counters are
 *    exact in double below 2^53). Each snapshot is
 *    streamed as a versioned JSON line through a TelemetryStream.
 *    Interval rates (IPC, MPKI, miss rates, ESP occupancy) are
 *    derived from consecutive snapshots by the stream's reader,
 *    tools/plot_intervals.py; the per-event timeline
 *    (report/timeline.hh) is an independent observer.
 *
 *  - **TelemetryStream** — a JSON-lines sink (file or in-memory for
 *    tests). One stream may carry several run blocks (a serve sweep
 *    writes one block per config); each block opens with a header
 *    line carrying the schema, run identity and the frozen counter
 *    name set, followed by snapshot lines and exactly one line with
 *    `"final": true`. Lines are flushed as written, so `tail -f` on
 *    the file is the way to watch a run live.
 *
 *  - **LiveTelemetry** — the record a live sampler reports into: the
 *    pacing, the stream and a snapshot count. One record may serve a
 *    whole serve sweep.
 *
 * Determinism: sampling is an opt-in observer. With it off, no code
 * path changes and every artifact stays byte-identical; with it on,
 * the run's *artifacts* are still byte-identical (samplers only read
 * counters), and the snapshots themselves are deterministic: the
 * pace is a simulated-cycle grid. Everything runs on the simulation
 * thread.
 */

#ifndef ESPSIM_REPORT_TELEMETRY_HH
#define ESPSIM_REPORT_TELEMETRY_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/types.hh"
#include "report/spans.hh"
#include "report/stat_registry.hh"

namespace espsim
{

/** Version of the telemetry-stream schema this build writes. */
constexpr std::uint32_t telemetryStreamFormatVersion = 1;

/** One absolute counter readout (aligned with the run's name set). */
struct TelemetrySnapshot
{
    std::uint64_t seq = 0; //!< 1-based within the run block
    Cycle cycle = 0;
    std::uint64_t events = 0;
    bool isFinal = false;
    std::vector<double> values;
};

/**
 * JSON-lines sink for telemetry blocks. Lines are flushed as written
 * so a live `tail -f` (or a post-crash read) always sees complete
 * records. Not thread-safe: only the simulation thread writes.
 */
class TelemetryStream
{
  public:
    TelemetryStream() = default;
    ~TelemetryStream();
    TelemetryStream(const TelemetryStream &) = delete;
    TelemetryStream &operator=(const TelemetryStream &) = delete;

    /** Open @p path for writing. @return false on I/O failure. */
    bool openFile(const std::string &path);

    /** Capture lines into @p sink instead of a file (tests). */
    void captureTo(std::string *sink) { sink_ = sink; }

    bool good() const { return file_ != nullptr || sink_ != nullptr; }

    /** Append one record (newline added, file flushed). */
    void writeLine(const std::string &line);

    std::uint64_t linesWritten() const { return lines_; }

    /** Close the file (no-op for capture mode). @return false on
     *  I/O failure. */
    bool close();

  private:
    std::FILE *file_ = nullptr;
    std::string *sink_ = nullptr;
    std::uint64_t lines_ = 0;
    bool writeFailed_ = false;
};

/** What a CounterSampler reports into. */
struct LiveTelemetry
{
    /** Snapshot when ≥ this many simulated cycles passed since the
     *  last grid point; 0 still takes the final snapshot of each run. */
    Cycle periodCycles = 0;
    /** JSONL sink for the snapshots (nullptr = none). */
    TelemetryStream *stream = nullptr;
    /** Config hash stamped into each block header ("" = the hash of
     *  the run's own config). */
    std::string configHash;
    /** Snapshots taken so far, the final ones included. */
    std::uint64_t snapshots = 0;
};

/**
 * Samples a StatRegistry's counters over one run. Construct after
 * every pre-run counter is registered (the name set freezes now;
 * stats registered after the run never appear), add to the core as a
 * span sink, finalize after the run.
 */
class CounterSampler final : public SpanSink
{
  public:
    /**
     * A sampler paced by @p live.periodCycles: each snapshot is
     * counted in @p live and streamed to its stream (if any). The
     * stream's block header, naming @p config, @p workload and
     * @p configHash, is written now.
     */
    CounterSampler(const StatRegistry &reg, LiveTelemetry &live,
                   const std::string &config,
                   const std::string &workload,
                   const std::string &configHash);

    /** Snapshot if the retire at span.retire crossed a grid point. */
    void onSpan(const RequestSpan &span) override;

    /**
     * Close the run: take the final snapshot (always, flagged
     * `"final": true`), whose values equal the end-of-run registry
     * counters exactly. Later calls are no-ops.
     */
    void finalize(Cycle now, std::uint64_t events_retired);

  private:
    LiveTelemetry &live_;
    const Cycle period_; //!< snapshot pace in cycles (0 = final only)
    std::vector<std::string> names_;
    std::vector<StatRegistry::Getter> getters_;
    TelemetrySnapshot snap_; //!< reused for every snapshot
    Cycle nextCycle_ = 0;
    bool finalized_ = false;

    void writeHeader(const std::string &config,
                     const std::string &workload,
                     const std::string &configHash);
    void sample(Cycle now, std::uint64_t events_retired, bool final_);
};

} // namespace espsim

#endif // ESPSIM_REPORT_TELEMETRY_HH
