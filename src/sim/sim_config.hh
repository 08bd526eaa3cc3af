/**
 * @file
 * Top-level simulation configuration with named factory presets for
 * every design point the paper evaluates. This is the main entry knob
 * of the public API:
 *
 *     auto result = Simulator(SimConfig::espFull(true)).run(workload);
 */

#ifndef ESPSIM_SIM_SIM_CONFIG_HH
#define ESPSIM_SIM_SIM_CONFIG_HH

#include <functional>
#include <map>
#include <string>

#include "branch/pentium_m.hh"
#include "cache/hierarchy.hh"
#include "cpu/ooo_core.hh"
#include "cpu/runahead.hh"
#include "energy/energy_model.hh"
#include "esp/config.hh"

namespace espsim
{

/** Which stall-time speculation engine is attached to the core. */
enum class SpeculationEngine
{
    None,
    Runahead,
    Esp,
};

/** Complete configuration of one simulated design point. */
struct SimConfig
{
    std::string name = "baseline";
    CoreConfig core;
    HierarchyConfig memory;
    BranchPredictorConfig branch;
    PrefetcherConfig prefetch;
    SpeculationEngine engine = SpeculationEngine::None;
    RunaheadConfig runahead;
    EspConfig esp;
    EnergyConfig energy;

    // --- factory presets (names match the paper's figure legends) ---

    /** No prefetching at all (Figure 9's normalisation baseline). */
    static SimConfig baseline();

    /** Next-line instruction + data prefetchers ("NL"). */
    static SimConfig nextLine();

    /** NL plus the 256-entry stride data prefetcher ("NL + S"). */
    static SimConfig nextLineStride();

    /** Runahead execution, optionally with NL ("Runahead [+ NL]"). */
    static SimConfig runaheadExec(bool with_nl);

    /** The full ESP design, optionally with NL ("ESP [+ NL]"). */
    static SimConfig espFull(bool with_nl);

    /** Figure 10's strawman: no cachelets/lists ("Naive ESP [+ NL]"). */
    static SimConfig espNaive(bool with_nl);

    /**
     * Figure 10 ablations: arm only the chosen benefit channels
     * (instruction prefetch, branch pre-training, data prefetch).
     * Always paired with NL, as in the figure.
     */
    static SimConfig espAblation(bool use_i, bool use_b, bool use_d);

    /** Instruction-side-only ESP ("ESP-I [+ NL-I]", Figure 11a). */
    static SimConfig espInstrOnly(bool with_nl_instr, bool ideal);

    /** Data-side-only ESP ("ESP-D [+ NL-D]", Figure 11b). */
    static SimConfig espDataOnly(bool with_nl_data, bool ideal);

    /** Data-side-only runahead ("Runahead-D [+ NL-D]", Figure 11b). */
    static SimConfig runaheadDataOnly(bool with_nl_data);

    /** Next-line on one side only (Figure 11 baselines). */
    static SimConfig nextLineInstrOnly();
    static SimConfig nextLineDataOnly();

    /** Figure 12 branch-policy studies (ESP otherwise full, with NL). */
    static SimConfig espBranchPolicy(BranchPolicy policy);

    /** Figure 3 potential: perfect L1D / BP / L1I / all. */
    static SimConfig perfect(bool l1d, bool bp, bool l1i);

    /** Figure 13 instrumentation: deep jump-ahead working-set study. */
    static SimConfig espWorkingSetStudy(unsigned depth);
};

/** The named design points `espsim` runs (`espsim list`), by name. */
const std::map<std::string, std::function<SimConfig()>> &namedConfigs();

} // namespace espsim

#endif // ESPSIM_SIM_SIM_CONFIG_HH
