/**
 * @file
 * Cross-run observatory: the perf trajectory *across* artifacts.
 *
 * Every espsim artifact is a self-contained snapshot of one run; this
 * module reads a directory of them (suite, latency, bench) plus the
 * committed bench baselines and joins them into a trajectory:
 *
 *  - runs are classified by schema and keyed by (schema,
 *    manifest.config_hash, workload fingerprint) — only artifacts
 *    measuring the *same* configuration matrix over the *same*
 *    workload shape (profile + event count for latency runs, app set
 *    for suites and bench sweeps) are comparable; trending a 100k-
 *    event run against a 1M-event run would compare raw cycle counts
 *    across scales;
 *  - within a group, runs are ordered (oldest → newest) by file
 *    modification time, which keeps `espsim report` offline and
 *    dependency-free; gate only on artifacts of one build, whose
 *    same-group runs agree whatever order their mtimes give;
 *  - per run a small set of headline metrics is extracted (mean IPC
 *    and cycles per config from suites, p50/p99 total latency per
 *    config from latency artifacts, Mcycles/s per cell and suite wall
 *    from bench artifacts);
 *  - first→last relative drift per metric is flagged against a
 *    tolerance, direction-aware (ipc/throughput up is good, cycles
 *    and latency down is good).
 *
 * Output: a human-readable markdown report and/or a versioned
 * `espsim-observatory-report` JSON artifact (schema checked by
 * tools/validate_artifact.py).
 */

#ifndef ESPSIM_REPORT_OBSERVATORY_HH
#define ESPSIM_REPORT_OBSERVATORY_HH

#include <cstdint>
#include <string>
#include <vector>

namespace espsim
{

/** One ingested artifact. */
struct ObservatoryRun
{
    std::string path;       //!< as given (for the report)
    std::string schema;     //!< espsim-suite-artifact, ...
    std::string configHash; //!< manifest.config_hash
    std::string workload;   //!< workload fingerprint (join key)
    std::string toolVersion;
    std::string buildType;
    std::int64_t mtimeNs = 0; //!< ordering key (file mtime)
    bool degraded = false;    //!< manifest.health says degraded
    std::vector<std::string> metricNames;
    std::vector<double> metricValues;
};

/** First→last drift of one metric within a comparable group. */
struct ObservatoryTrend
{
    std::string metric;
    double first = 0;
    double last = 0;
    double relChange = 0; //!< (last-first)/first, 0 when first==0
    bool higherIsBetter = false;
    bool regressed = false;
};

/** All runs sharing (schema, config_hash, workload). */
struct ObservatoryGroup
{
    std::string schema;
    std::string configHash;
    std::string workload;
    std::vector<std::size_t> runIndices; //!< into report.runs, ordered
    std::vector<ObservatoryTrend> trends;
};

struct ObservatoryReport
{
    std::vector<ObservatoryRun> runs;
    std::vector<ObservatoryGroup> groups;
    std::vector<std::string> skipped; //!< unreadable/foreign files
    double tolerance = 0.10;
    std::size_t regressions = 0; //!< trends flagged across all groups
};

/**
 * Ingest every *.json under @p dirs (non-recursive per directory) and
 * build the trajectory with regression flags at @p tolerance.
 * Unreadable or non-espsim files land in `skipped`, never fail the
 * scan.
 */
ObservatoryReport buildObservatoryReport(
    const std::vector<std::string> &dirs, double tolerance);

/** Direction convention for a metric name (see file comment). */
bool observatoryHigherIsBetter(const std::string &metric);

/** Render the report as markdown (the CLI's stdout form). */
std::string renderObservatoryMarkdown(const ObservatoryReport &report);

/** Render the versioned espsim-observatory-report JSON artifact. */
std::string renderObservatoryJson(const ObservatoryReport &report);

} // namespace espsim

#endif // ESPSIM_REPORT_OBSERVATORY_HH
