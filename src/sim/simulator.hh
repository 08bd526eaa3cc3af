/**
 * @file
 * The top-level facade: wires a SimConfig into a core + hierarchy +
 * predictor + (optional) speculation engine, runs a workload, and
 * returns every statistic the paper's figures need.
 */

#ifndef ESPSIM_SIM_SIMULATOR_HH
#define ESPSIM_SIM_SIMULATOR_HH

#include <string>

#include "common/histogram.hh"
#include "common/stats.hh"
#include "cpu/ooo_core.hh"
#include "energy/energy_model.hh"
#include "report/spans.hh"
#include "report/telemetry.hh"
#include "report/timeline.hh"
#include "sim/sim_config.hh"
#include "trace/workload.hh"

namespace espsim
{

/** Everything measured in one simulation run. */
struct SimResult
{
    std::string configName;
    std::string workloadName;

    CoreStats core;
    EnergyBreakdown energy;
    /**
     * The canonical stats surface: a snapshot of every counter the
     * run's components registered into the StatRegistry ("core.",
     * "mem.", "bp.", "esp." or "runahead.", "energy.", "derived."
     * groups). The headline fields below are views over this snapshot.
     */
    StatGroup stats;

    // Headline derived metrics.
    Cycle cycles = 0;
    double ipc = 0;
    double l1iMpki = 0;        //!< L1-I misses per kilo-instruction
    double l1dMissRate = 0;    //!< fraction of L1-D demand accesses
    double mispredictRate = 0; //!< fraction of executed branches
    double extraInstrFraction = 0; //!< speculative / committed

    /** Working-set samples per ESP depth (Figure 13 runs only). */
    std::vector<SampleStat> instrWorkingSets;
    std::vector<SampleStat> dataWorkingSets;

    /** Speedup of this result over a reference run (same workload). */
    double
    speedupOver(const SimResult &ref) const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(ref.cycles) /
                static_cast<double>(cycles);
    }

    /** Percent performance improvement over @p ref. */
    double
    improvementPctOver(const SimResult &ref) const
    {
        return (speedupOver(ref) - 1.0) * 100.0;
    }
};

/**
 * Optional observers for one run; all fields may be left defaulted
 * (the run then costs nothing extra).
 */
struct RunInstrumentation
{
    /** Per-event timeline recorder (nullptr = off). */
    EventTimeline *timeline = nullptr;
    /** Event arrival discipline + latency probe (nullptr = saturated
     *  looper, the paper's setup). See cpu/pacer.hh. */
    EventPacer *pacer = nullptr;
    /** Per-request span sink (worst-K tail blame; nullptr = off).
     *  See report/spans.hh. */
    SpanSink *spans = nullptr;
    /** Telemetry: a CounterSampler streams snapshots into it
     *  (nullptr = off). It may outlive the run and serve several.
     *  See report/telemetry.hh. */
    LiveTelemetry *telemetry = nullptr;
};

/** One-shot simulator: construct with a config, run workloads. */
class Simulator
{
  public:
    explicit Simulator(SimConfig config);

    const SimConfig &config() const { return config_; }

    /** Simulate the workload from a cold machine state. */
    SimResult run(const Workload &workload) const;

    /** Same, with the full instrumentation surface attached. */
    SimResult run(const Workload &workload,
                  const RunInstrumentation &inst) const;

  private:
    SimConfig config_;
};

} // namespace espsim

#endif // ESPSIM_SIM_SIMULATOR_HH
