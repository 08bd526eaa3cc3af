/**
 * @file
 * Interval series: time-resolved counter deltas for one run.
 *
 * Every figure in the paper is an end-of-run aggregate; the series
 * exposes *phase behaviour* instead. It is built after the run from an
 * in-memory CounterSampler (report/telemetry.hh), the one counter
 * sampler: the sampler snapshots absolute counter values at each
 * event-retire boundary that crosses a cycle and/or event grid point,
 * and each interval here is the difference of two consecutive
 * snapshots. The baseline is the sampler's construction snapshot, and
 * a trailing interval closes the series only if a counter moved after
 * the last grid snapshot.
 *
 * Only Counter-kind stats (uint64-backed monotone counters, see
 * StatKind) are sampled. Their doubles are exact below 2^53, so the
 * per-interval deltas **telescope** by construction: for every
 * counter,
 *
 *     baseline + Σ interval deltas == final snapshot     (exactly)
 *
 * — a property the artifact validator, the unit tests and the fuzz
 * harness's interval-delta-closure oracle all check. Rates and ratios
 * (IPC, miss rates, ESP occupancy) are *not* stored; downstream
 * consumers (tools/plot_intervals.py, the timeline counter tracks
 * added by addIntervalCounterTracks()) derive them per interval from
 * the counter deltas.
 *
 * The series is deterministic by construction — names are the
 * registry's sorted order, intervals fire at cycle/event grid points
 * derived only from simulated time — so the rendered artifact is
 * byte-identical at any `--jobs` count.
 */

#ifndef ESPSIM_REPORT_INTERVAL_HH
#define ESPSIM_REPORT_INTERVAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "report/telemetry.hh"

namespace espsim
{

struct ArtifactManifest;
class EventTimeline;

/** Version of the interval-series schema this build writes. */
constexpr std::uint32_t intervalSeriesFormatVersion = 1;

/** One sampling interval: counter deltas since the previous sample. */
struct IntervalPoint
{
    Cycle endCycle = 0;
    std::uint64_t endEvents = 0;
    /** Aligned with IntervalSeries::names. */
    std::vector<double> deltas;
};

/** A whole run's time-resolved counter series. */
struct IntervalSeries
{
    std::string configName;
    std::string workloadName;
    std::string configHash; //!< 16-hex-digit hash of the run's config
    SamplePeriod period;

    /** Sorted counter names; every values/deltas vector aligns. */
    std::vector<std::string> names;

    /** Counter values when sampling began (post-warmup machine). */
    Cycle baselineCycle = 0;
    std::uint64_t baselineEvents = 0;
    std::vector<double> baseline;

    std::vector<IntervalPoint> intervals;

    /** Counter values at finalize; closure target for the deltas. */
    Cycle finalCycle = 0;
    std::uint64_t finalEvents = 0;
    std::vector<double> finalValues;
};

/** The series of a finalized in-memory @p sampler, by subtraction. */
IntervalSeries intervalSeries(const CounterSampler &sampler);

/**
 * Add each interval of @p series to @p timeline as counter-track
 * points (IPC, miss rates, ESP occupancy derived from the deltas).
 */
void addIntervalCounterTracks(EventTimeline &timeline,
                              const IntervalSeries &series);

/**
 * Render the canonical `espsim-interval-series` JSON artifact.
 * Deterministic: name-ordered counters, shortest-round-trip numbers.
 */
std::string renderIntervalSeriesJson(const ArtifactManifest &manifest,
                                     const IntervalSeries &series);

} // namespace espsim

#endif // ESPSIM_REPORT_INTERVAL_HH
