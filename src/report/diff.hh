/**
 * @file
 * Stat-level diff of two suite artifacts — the regression gate behind
 * `espsim diff baseline.json candidate.json`.
 *
 * Both inputs are `espsim-suite-artifact` JSON documents (written by
 * `espsim suite --json`). The diff matches (app, config) points,
 * compares every stat inside the configured tolerances, and ranks the
 * drifts by relative magnitude. Drifts on `core.cycles` are attributed
 * through the cycle-accounting buckets: the report names the buckets
 * whose deltas explain the cycle change, so "amazon/ESP+NL got 4%
 * slower" comes annotated with "dcache_miss +3211, esp_pre_exec -890".
 *
 * Exit-code contract (stable; CI depends on it):
 *   0 — artifacts agree within tolerance on every stat
 *   1 — any stat drift beyond tolerance (an added or removed stat
 *       included), a missing point, a candidate error cell, or a
 *       config-hash mismatch
 *   2 — an input failed to load or parse
 *
 * Artifacts produced by a degraded sweep carry an `errors` block (see
 * docs/ROBUSTNESS.md): a failed cell's stats are absent from
 * `results`. The diff reads the block, annotates the corresponding
 * missing-point drift with the cell's error message, and treats any
 * candidate-side error cell as a gate failure.
 *
 * Build-environment manifest fields (`tool_version`, `build_type`)
 * are deliberately ignored: artifacts from different commits must be
 * comparable. `config_hash` *is* compared — a mismatch means the two
 * runs simulated different machines, which makes any stat comparison
 * meaningless — unless `ignoreConfigHash` is set.
 */

#ifndef ESPSIM_REPORT_DIFF_HH
#define ESPSIM_REPORT_DIFF_HH

#include <cstddef>
#include <string>
#include <vector>

namespace espsim
{

class JsonValue;

/** Tolerances and report shaping for one diff run. */
struct DiffOptions
{
    /** Relative tolerance: drifts within |b-c| <= rel*max(|b|,|c|)
     *  are ignored. 0 demands bit-exact stats (the determinism
     *  gate: --jobs 1 vs --jobs 8 must produce identical output). */
    double relTol = 0.0;

    /** Absolute floor below which any difference is noise (guards
     *  relative comparison of near-zero stats). */
    double absTol = 1e-12;

    /** Cap on drift rows printed by renderDiffReport. */
    std::size_t maxRows = 20;

    /** Compare artifacts from different machine configs anyway. */
    bool ignoreConfigHash = false;
};

/** One stat (or point) that moved beyond tolerance. */
struct StatDrift
{
    std::string app;
    std::string config;
    std::string stat;
    double baseline = 0.0;
    double candidate = 0.0;
    /** (candidate - baseline) / |baseline|; +inf when baseline is 0. */
    double relDrift = 0.0;
    bool onlyInBaseline = false;
    bool onlyInCandidate = false;
    /** Cycle-bucket deltas explaining a core.cycles drift. */
    std::string attribution;
};

/** Outcome of one artifact comparison. */
struct DiffResult
{
    bool loaded = false;
    std::string error;
    bool configHashMatch = true;
    std::size_t pointsCompared = 0;
    std::size_t statsCompared = 0;
    /** Beyond-tolerance drifts, ranked by |relDrift| descending;
     *  any one fails the gate (exit 1). */
    std::vector<StatDrift> drifts;
    /** Failed cells declared in each artifact's `errors` block. A
     *  candidate error cell always fails the gate (exit 1). */
    std::size_t baselineErrorCells = 0;
    std::size_t candidateErrorCells = 0;

    /** The process exit code this result maps to (0, 1, or 2). */
    int exitCode() const;
};

/** Diff two parsed suite artifacts. */
DiffResult diffSuiteArtifacts(const JsonValue &baseline,
                              const JsonValue &candidate,
                              const DiffOptions &opts = {});

/** Load two artifact files and diff them (exit 2 path on I/O). */
DiffResult diffSuiteArtifactFiles(const std::string &baselinePath,
                                  const std::string &candidatePath,
                                  const DiffOptions &opts = {});

/** Human-readable report: summary header plus ranked drift table. */
std::string renderDiffReport(const DiffResult &result,
                             const DiffOptions &opts = {});

} // namespace espsim

#endif // ESPSIM_REPORT_DIFF_HH
