/**
 * @file
 * Suite-level harness helpers shared by every benchmark binary: run a
 * set of design points over the seven-app suite (generating each app's
 * workload once), and aggregate results the way the paper does
 * (harmonic mean across applications).
 *
 * The sweep is embarrassingly parallel — every simulation is a pure
 * function of (SimConfig, Workload) — so SuiteRunner fans one job per
 * (app, config) point out over a JobPool. Results are written into
 * pre-allocated index slots, so figure tables are byte-identical at
 * any thread count.
 */

#ifndef ESPSIM_SIM_STATS_REPORT_HH
#define ESPSIM_SIM_STATS_REPORT_HH

#include <string>
#include <vector>

#include "common/histogram.hh"
#include "common/job_pool.hh"
#include "sim/simulator.hh"
#include "workload/app_profile.hh"

namespace espsim
{

/**
 * A failed (app, config) sweep cell. A throwing simulation no longer
 * aborts the whole suite: the cell degrades to this record (the
 * exception message plus the hash of the config that triggered it)
 * and the run carries on. Tables print error cells as "ERROR!"; the
 * JSON artifact collects them in its `errors` block; `espsim suite`
 * exits non-zero when any cell failed.
 */
struct CellError
{
    std::string message;    //!< what() of the escaped exception
    std::string configHash; //!< configsHash of the failing config
};

/** All configs' results for one application. */
struct SuiteRow
{
    std::string app;
    std::vector<SimResult> results; //!< index-aligned with configs
    /**
     * Index-aligned error cells; empty message = the cell succeeded.
     * Empty vector (the common all-good case) means no cell failed.
     */
    std::vector<CellError> errors;

    /** Did the cell for config index @p c produce a valid result? */
    bool
    ok(std::size_t c) const
    {
        return errors.empty() || errors[c].message.empty();
    }

    /** Any failed cell in this row? */
    bool
    hasErrors() const
    {
        for (const CellError &e : errors) {
            if (!e.message.empty())
                return true;
        }
        return false;
    }
};

/** Any failed cell anywhere in the sweep? */
bool suiteHasErrors(const std::vector<SuiteRow> &rows);

/** Runs design-point sweeps across an application suite. */
class SuiteRunner
{
  public:
    /** Defaults to the paper's seven web applications. */
    explicit SuiteRunner(
        std::vector<AppProfile> apps = AppProfile::webSuite());

    const std::vector<AppProfile> &apps() const { return apps_; }

    /**
     * Degree of parallelism for run(): one job per (app, config)
     * point. 0 (the default) resolves to JobPool::defaultJobs()
     * (ESPSIM_JOBS env override, else hardware_concurrency); 1 is the
     * old strictly serial behaviour.
     */
    void setJobs(unsigned jobs) { jobs_ = jobs; }
    unsigned jobs() const { return jobs_; }

    /**
     * Simulate every config on every app. Each app's workload is
     * generated once and shared read-only across that app's config
     * jobs (and released as soon as the app's last point completes,
     * keeping memory bounded). Results land in the same index order
     * regardless of thread count.
     *
     * Fault tolerance: a cell whose simulation (or workload
     * generation) throws becomes a CellError in its row instead of
     * taking down the sweep — every other cell still completes.
     * Inspect with SuiteRow::ok() / suiteHasErrors().
     *
     * Fault injection (for tests): when the ESPSIM_FAULT_INJECT
     * environment variable is set to "app:config" (either side may be
     * "*"), the matching cells throw before simulating.
     */
    std::vector<SuiteRow> run(const std::vector<SimConfig> &configs,
                              bool announce_progress = false) const;

  private:
    std::vector<AppProfile> apps_;
    unsigned jobs_ = 0; //!< 0 = JobPool::defaultJobs()
};

/**
 * Harmonic mean across apps of per-app percent improvement of config
 * @p cfg over config @p ref (both indices into each row's results).
 * The paper's HMean bars are harmonic means of per-app speedups; we
 * aggregate speedups harmonically then convert to percent. Rows whose
 * cfg or ref cell errored are excluded from the aggregate.
 */
double hmeanImprovementPct(const std::vector<SuiteRow> &rows,
                           std::size_t cfg, std::size_t ref);

/**
 * Harmonic mean across apps of an arbitrary per-result metric.
 * Templated on the getter so per-cell std::function allocation never
 * happens in table-rendering loops. Error cells are excluded.
 */
template <typename Get>
double
hmeanMetric(const std::vector<SuiteRow> &rows, std::size_t cfg,
            Get &&get)
{
    std::vector<double> values;
    values.reserve(rows.size());
    for (const SuiteRow &row : rows) {
        if (row.ok(cfg))
            values.push_back(get(row.results[cfg]));
    }
    return harmonicMean(values);
}

/** Arithmetic mean across apps of a per-result metric (error cells
 *  excluded). */
template <typename Get>
double
meanMetric(const std::vector<SuiteRow> &rows, std::size_t cfg,
           Get &&get)
{
    std::vector<double> values;
    values.reserve(rows.size());
    for (const SuiteRow &row : rows) {
        if (row.ok(cfg))
            values.push_back(get(row.results[cfg]));
    }
    return arithmeticMean(values);
}

} // namespace espsim

#endif // ESPSIM_SIM_STATS_REPORT_HH
