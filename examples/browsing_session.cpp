/**
 * @file
 * Full browsing-session study: run the paper's seven-application suite
 * on the baseline, runahead, and ESP machines, and print a per-app
 * report of where the cycles go — the asynchronous-program pathology
 * of §2 (instruction-cache stalls and branch mispredicts dominating)
 * and how much of it each technique recovers.
 */

#include <cstdio>

#include "common/table.hh"
#include "sim/stats_report.hh"

using namespace espsim;

int
main()
{
    const std::vector<SimConfig> configs{
        SimConfig::nextLineStride(),   // the Figure 7 baseline machine
        SimConfig::runaheadExec(true),
        SimConfig::espFull(true),
    };

    const SuiteRunner runner;
    const auto rows = runner.run(configs, /*announce=*/true);

    TextTable breakdown(
        "Cycle breakdown on the baseline machine (CPI per component)");
    breakdown.header({"app", "CPI", "icache", "branch", "data/rob",
                      "L1I-MPKI", "BP-miss%"});
    for (const SuiteRow &row : rows) {
        const SimResult &r = row.results[0];
        const auto inst = static_cast<double>(r.core.instructions);
        const auto cycles = [&r](CycleBucket b) {
            return r.core.bucketCycles[static_cast<unsigned>(b)];
        };
        breakdown.row({
            row.app,
            TextTable::num(1.0 / r.ipc, 2),
            TextTable::num(cycles(CycleBucket::IcacheMiss) / inst, 2),
            TextTable::num(
                cycles(CycleBucket::MispredictRedirect) / inst, 2),
            TextTable::num((cycles(CycleBucket::DcacheMiss) +
                            cycles(CycleBucket::LsqFull)) /
                               inst,
                           2),
            TextTable::num(r.l1iMpki, 1),
            TextTable::num(100.0 * r.mispredictRate, 1),
        });
    }
    std::fputs(breakdown.render().c_str(), stdout);
    std::puts("");

    TextTable compare("Runahead and ESP on the same session "
                      "(% improvement over the baseline)");
    compare.header({"app", "Runahead+NL", "ESP+NL", "ESP extra-instr%",
                    "ESP spec-accuracy%"});
    for (const SuiteRow &row : rows) {
        const SimResult &base = row.results[0];
        const SimResult &ra = row.results[1];
        const SimResult &esp = row.results[2];
        compare.row({
            row.app,
            TextTable::num(ra.improvementPctOver(base), 1),
            TextTable::num(esp.improvementPctOver(base), 1),
            TextTable::num(100.0 * esp.extraInstrFraction, 1),
            TextTable::num(
                100.0 * esp.stats.get("esp.spec_match_fraction"), 2),
        });
    }
    std::fputs(compare.render().c_str(), stdout);

    std::printf("\nsuite HMean: Runahead+NL %.1f%%, ESP+NL %.1f%% over "
                "the NL+S baseline\n",
                hmeanImprovementPct(rows, 1, 0),
                hmeanImprovementPct(rows, 2, 0));
    return 0;
}
