/**
 * @file
 * Design-space exploration with the EspConfig knobs: jump-ahead depth,
 * cachelet size, list capacity, prefetch lead and the unbounded ideal.
 * Run on one application for quick turnaround.
 */

#include <cstdio>

#include "common/table.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"

using namespace espsim;

namespace
{

SimResult
runVariant(const InMemoryWorkload &w, const std::string &name,
           void (*tweak)(EspConfig &))
{
    SimConfig cfg = SimConfig::espFull(true);
    cfg.name = name;
    tweak(cfg.esp);
    return Simulator(cfg).run(w);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string app = argc > 1 ? argv[1] : "amazon";
    SyntheticGenerator gen(AppProfile::byName(app));
    const auto workload = gen.generate();

    const SimResult base =
        Simulator(SimConfig::nextLineStride()).run(*workload);

    struct Variant
    {
        const char *name;
        void (*tweak)(EspConfig &);
    };
    const Variant variants[] = {
        {"ESP (paper design)", [](EspConfig &) {}},
        {"depth 1 (no ESP-2)",
         [](EspConfig &c) { c.maxDepth = 1; }},
        {"depth 4",
         [](EspConfig &c) { c.maxDepth = 4; }},
        {"half-size cachelets",
         [](EspConfig &c) {
             c.icachelet.sizeBytes = 3 * 1024;
             c.dcachelet.sizeBytes = 3 * 1024;
         }},
        {"double lists",
         [](EspConfig &c) {
             for (auto *caps : {&c.iListBytes, &c.dListBytes,
                                &c.bListDirBytes, &c.bListTgtBytes}) {
                 (*caps)[0] *= 2;
                 (*caps)[1] *= 2;
             }
         }},
        {"lead 60 instructions",
         [](EspConfig &c) { c.prefetchLeadInstructions = 60; }},
        {"lead 800 instructions",
         [](EspConfig &c) { c.prefetchLeadInstructions = 800; }},
        {"unbounded (ideal)",
         [](EspConfig &c) { c.ideal = true; }},
    };

    TextTable table("ESP design space on '" + app +
                    "' (% improvement over NL+S)");
    table.header({"variant", "improvement %", "L1I MPKI", "extra instr %"});
    for (const Variant &v : variants) {
        const SimResult r = runVariant(*workload, v.name, v.tweak);
        table.row({v.name,
                   TextTable::num(r.improvementPctOver(base), 1),
                   TextTable::num(r.l1iMpki, 2),
                   TextTable::num(100.0 * r.extraInstrFraction, 1)});
    }
    std::fputs(table.render().c_str(), stdout);
    std::puts("\nExpected shape: the paper design is near the knee — "
              "depth > 2 and bigger structures add little; shrinking "
              "structures costs performance.");
    return 0;
}
