/**
 * @file
 * Jump-ahead depth ablation across the full seven-app suite: the
 * paper's §6.6 argument for stopping at 2 (Figure 13's taper).
 */

#include <cstdio>

#include "bench_util.hh"

using namespace espsim;

namespace
{

SimConfig
variant(const char *name, void (*tweak)(EspConfig &))
{
    SimConfig cfg = SimConfig::espFull(true);
    cfg.name = name;
    tweak(cfg.esp);
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto report = benchutil::reportSetup(argc, argv,
                                               "ext_ablation",
                                               "ext_ablation");
    const std::vector<SimConfig> configs{
        SimConfig::nextLineStride(), // reference (hidden)
        variant("ESP (paper)", [](EspConfig &) {}),
        variant("depth=1", [](EspConfig &c) { c.maxDepth = 1; }),
        variant("depth=4", [](EspConfig &c) { c.maxDepth = 4; }),
    };

    const SuiteRunner runner = benchutil::makeSuiteRunner(argc, argv);
    const auto rows = runner.run(configs);

    benchutil::printImprovementFigure(
        "Ablation: ESP jump-ahead depth (% improvement over NL+S, "
        "suite HMean in last row)",
        rows, configs, 1);

    std::puts("expected shape: depth 1~2 close (short events thin "
              "ESP-1's budget at depth 2), depth 4 worse (budget thinning "
              "+ table pollution); the paper keeps depth 2.");
    benchutil::reportFinish(report, configs, rows);
    return 0;
}
