/**
 * @file
 * The repository benchmark (see README.md in this directory).
 *
 *   perfbench --workload <web_base|web_esp|serve_memcached>
 *             [--seed N] [--seconds S] [--trace 0|1]
 *
 * --trace 0 times the untraced simulator and prints the end-to-end
 * metrics; --trace 1 rebuilds the Simulator::run wiring from public
 * parts with outside-in probes around each layer and prints the
 * per-layer metrics. Either way the last line of stdout is one JSON
 * object {correct, attempted, failed, metrics}; a human-readable
 * report goes to stderr. Every simulation run is checked (committed
 * instructions, repeat determinism, traced == untraced stats) and a
 * run whose check fails is counted in "failed".
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.hh"
#include "common/logging.hh"
#include "esp/controller.hh"
#include "report/host_profile.hh"
#include "report/spans.hh"
#include "report/stat_registry.hh"
#include "server/latency.hh"
#include "server/profile.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"
#include "workload/streaming.hh"

#include "probes.hh"

namespace perfbench
{

using namespace espsim;

// --- The benchmark's fixed parameters --------------------------------

/** Instructions generated per web app. A fixed budget, not an event
 *  count, so every seed gives each app the same amount of work. */
constexpr InstCount webInstrsPerApp = 5'000'000;
/** memcached requests per serve pass (the profile's default). */
constexpr std::size_t serveEvents = 20000;
/** Streaming window and latency reservoir: the `espsim serve`
 *  defaults (ServeOptions). */
constexpr std::size_t serveWindow = 16;
constexpr std::size_t serveReservoir = 4096;
/** Set-ups per app (web) or per timed pass (serve); setup_s takes
 *  medians. */
constexpr unsigned webSetups = 3;
constexpr unsigned serveSetupsPerPass = 8;
/** Timed passes per input, at least; sim_mips takes their median. */
constexpr std::size_t minPasses = 3;
/**
 * Host-time metrics are scaled to a host on which HostProbe takes this
 * many nanoseconds per step, about its time on an idle 4-vCPU Xeon
 * guest (see README.md). On a shared machine the simulator's speed
 * shifts by up to 60% in regimes lasting tens of seconds; the probe,
 * timed between passes, shifts with it, so the scaled figures hold
 * still where the raw ones do not.
 */
constexpr double probeRefNs = 40.0;
constexpr std::size_t minTracedPasses = 2;
/** The paper's ESP+NL improvement over the no-prefetch baseline. */
constexpr double paperEspNlGainPct = 32.0;

enum class Bench
{
    WebBase,
    WebEsp,
    ServeMemcached,
};

struct Options
{
    Bench bench = Bench::WebBase;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Runs attempted and failed, with the first few failure reasons. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    check(bool ok, const std::string &what)
    {
        if (ok)
            return;
        ++failed;
        if (failed <= 8)
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
    }
};

double
toSeconds(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e9;
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** Nearest-rank percentile, as SampleStat::percentile computes it. */
double
percentile(const std::vector<double> &v, double pct)
{
    SampleStat s;
    for (double x : v)
        s.record(x);
    return s.percentile(pct);
}

/** True once @p budget_s has passed and @p passes >= @p min_passes. */
bool
done(std::int64_t start_ns, double budget_s, std::size_t passes,
     std::size_t min_passes)
{
    return passes >= min_passes && toSeconds(nowNs() - start_ns) >= budget_s;
}

SimConfig
configFor(Bench bench)
{
    return bench == Bench::WebBase ? SimConfig::baseline()
                                   : SimConfig::espFull(true);
}

// --- Inputs from the seed --------------------------------------------
//
// The seed picks which stretch of each application's session is
// simulated (a window of event ids) and the arrival schedule. It leaves
// the profiles' static code and data image alone, since that is what
// calibrates each app to the paper: two seeds are two sessions of the
// same seven sites, not fourteen different sites.

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Event ids stay below this, so the generator's per-event argument
 *  objects (4 KB apart) and bump allocations stay in their regions. */
constexpr std::uint64_t eventIdLimit = std::uint64_t{1} << 16;

/** First event id of the seed's window of at most @p max_events. */
std::uint64_t
windowBase(std::uint64_t seed, std::uint64_t salt, std::uint64_t max_events)
{
    return splitmix64(seed ^ splitmix64(salt)) % (eventIdLimit - max_events);
}

/**
 * Generate @p app's session window up front, from the seed's first
 * event id until it holds webInstrsPerApp instructions (what
 * SyntheticGenerator::generate does for ids 0..numEvents-1).
 */
std::unique_ptr<InMemoryWorkload>
generateApp(const AppProfile &app, std::uint64_t seed)
{
    const SyntheticGenerator gen(app);
    std::uint64_t id = windowBase(seed, app.seed,
                                  webInstrsPerApp / app.minEventLen + 1);
    std::vector<EventTrace> events;
    InstCount instrs = 0;
    while (instrs < webInstrsPerApp) {
        events.push_back(gen.generateEvent(id++));
        instrs += events.back().size();
    }
    auto workload =
        std::make_unique<InMemoryWorkload>(app.name, std::move(events));
    workload->setWarmSet(gen.warmSet());
    return workload;
}

/** EventSource over the request ids [base, base + n) of another. */
class WindowSource final : public EventSource
{
  public:
    WindowSource(std::unique_ptr<const EventSource> inner,
                 std::uint64_t base, std::size_t n)
        : inner_(std::move(inner)), base_(base), n_(n)
    {
    }

    const std::string &name() const override { return inner_->name(); }
    std::size_t numEvents() const override { return n_; }
    std::vector<AddrRange> warmSet() const override
    {
        return inner_->warmSet();
    }
    EventTrace
    makeEvent(std::uint64_t id) const override
    {
        return inner_->makeEvent(base_ + id);
    }

  private:
    std::unique_ptr<const EventSource> inner_;
    std::uint64_t base_;
    std::size_t n_;
};

/** One run's inputs: a workload, and for serve runs the stream that
 *  owns it and the pacer, both built fresh for every pass. */
struct RunInputs
{
    const Workload *workload = nullptr;
    std::unique_ptr<StreamingWorkload> stream;
    std::unique_ptr<ServePacer> pacer;
};

/** The `espsim serve` wiring for one config (see runServe), over the
 *  seed's request window, with @p probe timing makeEvent when given. */
RunInputs
makeServe(const ServerProfile &profile, std::uint64_t seed,
          LayerTimes *probe)
{
    ArrivalConfig arrival; // open-loop Poisson at the default mean gap
    arrival.seed = splitmix64(seed ^ splitmix64(arrival.seed));
    std::unique_ptr<const EventSource> source =
        std::make_unique<WindowSource>(
            std::make_unique<ServerTraceSource>(profile),
            windowBase(seed, profile.app.seed, serveEvents), serveEvents);
    if (probe)
        source = std::make_unique<TimedSource>(std::move(source), *probe);
    RunInputs s;
    s.stream =
        std::make_unique<StreamingWorkload>(std::move(source), serveWindow);
    s.workload = s.stream.get();
    s.pacer = std::make_unique<ServePacer>(
        makeArrivalProcess(arrival), serveReservoir, arrival.seed,
        profile.app.numHandlerTypes);
    return s;
}

// --- Output checks --------------------------------------------------

bool
sameValue(double a, double b)
{
    return a == b || (std::isnan(a) && std::isnan(b));
}

/** Every stat in @p sub exists in @p full with the identical value. */
bool
statsContained(const StatGroup &sub, const StatGroup &full,
               std::string &why)
{
    if (!sub.has("core.cycles")) {
        why = "no core.cycles";
        return false;
    }
    for (const auto &[name, value] : sub.values()) {
        if (!full.has(name) || !sameValue(value, full.get(name))) {
            why = name;
            return false;
        }
    }
    return true;
}

bool
sameStats(const StatGroup &a, const StatGroup &b, std::string &why)
{
    return a.values().size() == b.values().size() &&
        statsContained(a, b, why);
}

bool
sameLatency(const LatencySummary &a, const LatencySummary &b)
{
    return a.count == b.count && a.p50 == b.p50 && a.p99 == b.p99;
}

/** Committed = the workload's instructions plus the looper's. */
void
checkCommitted(Outcome &oc, const SimConfig &cfg, const CoreStats &core,
               std::size_t events, InstCount workload_instrs,
               const std::string &what)
{
    oc.check(core.events == events &&
                 core.instructions ==
                     workload_instrs +
                         core.events * cfg.core.looperOverheadInstr,
             what + ": committed instructions != workload instructions");
}

/** Records each event's latency from arrival to retire (cycles). */
class LatencyProbe final : public SpanSink
{
  public:
    void
    onSpan(const RequestSpan &span) override
    {
        samples_.record(static_cast<double>(span.totalCycles()));
    }

    const SampleStat &samples() const { return samples_; }

  private:
    SampleStat samples_;
};

// --- Simulator::run rebuilt from public parts -------------------------

/** Pre-warm the LLC with the workload's standing image, as
 *  Simulator::run does. */
void
warmL2(MemoryHierarchy &mem, const Workload &workload)
{
    for (const AddrRange &range : workload.warmSet()) {
        for (Addr a = blockAlign(range.first); a < range.second;
             a += blockBytes)
            mem.l2().insert(a);
    }
}

/**
 * Simulator::run's wiring up to the first simulated op: hierarchy,
 * predictor, warm L2, engine, core and stat registry. With @p probe,
 * TimedHooks wrap the engine and the warm-up and the registration are
 * timed into the probe. Energy and per-handler registration are left
 * out; every stat registered here must equal the untraced run's.
 */
struct Machine
{
    Machine(const SimConfig &cfg, const Workload &workload,
            LayerTimes *probe)
        : mem(cfg.memory), bp(cfg.branch)
    {
        std::int64_t t0 = nowNs();
        warmL2(mem, workload);
        if (probe)
            probe->warmupNs += nowNs() - t0;

        CoreHooks *engine = &noEngine;
        if (cfg.engine == SpeculationEngine::Esp) {
            esp = std::make_unique<EspController>(cfg.esp, mem, bp,
                                                  workload, cfg.core.width);
            engine = esp.get();
        } else if (cfg.engine != SpeculationEngine::None) {
            fatal("perfbench: no runahead wiring");
        }
        if (probe) {
            timedHooks = std::make_unique<TimedHooks>(*engine, *probe);
            engine = timedHooks.get();
        }
        core = std::make_unique<OoOCore>(cfg.core, mem, bp, cfg.prefetch,
                                         *engine);

        t0 = nowNs();
        core->registerStats(reg, "core.");
        mem.registerStats(reg, "mem.");
        bp.registerStats(reg, "bp.");
        if (esp)
            esp->registerStats(reg, "esp.");
        if (probe)
            probe->statsNs += nowNs() - t0;
    }

    // The registry's getters point into the members.
    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    MemoryHierarchy mem;
    PentiumMPredictor bp;
    CoreHooks noEngine;
    std::unique_ptr<EspController> esp;
    std::unique_ptr<TimedHooks> timedHooks;
    std::unique_ptr<OoOCore> core;
    StatRegistry reg;
};

struct TracedRun
{
    StatGroup stats;
    CoreStats core;
    std::int64_t wallNs = 0;
};

/** Simulator::run with TimedHooks around the engine and TimedPacer
 *  around @p pacer. */
TracedRun
tracedRun(const SimConfig &cfg, const Workload &workload,
          EventPacer *pacer, LayerTimes &times)
{
    TracedRun out;
    const std::int64_t start = nowNs();
    Machine m(cfg, workload, &times);
    std::unique_ptr<TimedPacer> timed_pacer;
    if (pacer) {
        timed_pacer = std::make_unique<TimedPacer>(*pacer, times);
        m.core->setPacer(timed_pacer.get());
    }

    std::int64_t t0 = nowNs();
    m.core->run(workload);
    times.runNs += nowNs() - t0;
    m.mem.finalizePrefetchLifecycles();

    t0 = nowNs();
    out.stats = m.reg.snapshot();
    times.statsNs += nowNs() - t0;
    out.core = m.core->stats();
    out.wallNs = nowNs() - start;
    return out;
}

// --- End-to-end runs (tracing off) -----------------------------------

/**
 * The end-to-end metrics. The host-time ones, measured as @p mips and
 * @p setup_s, are scaled to the reference host by the median of the
 * HostProbe readings @p probe_ns taken over the run.
 */
std::vector<Metric>
e2eMetrics(double mips, double setup_s, const std::vector<double> &probe_ns,
           double ipc, const LatencySummary &lat)
{
    const double probe = median(probe_ns);
    const double slowdown = probe / probeRefNs;
    std::fprintf(stderr,
                 "# host probe: median %.2f ns/step over %zu timings "
                 "(reference %.1f); unscaled sim_mips %.4g, setup_s %.4g\n",
                 probe, probe_ns.size(), probeRefNs, mips, setup_s);
    return {
        {"sim_mips", mips * slowdown, "MIPS"},
        {"setup_s", setup_s / slowdown, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_ipc", ipc, "instr/cycle"},
        {"sim_p50_kcycles", lat.p50 / 1e3, "kcycles"},
        {"sim_p99_kcycles", lat.p99 / 1e3, "kcycles"},
    };
}

/** Generate @p app and wire a machine for it, as a run would before
 *  its first op; returns the host seconds taken. */
double
setUpApp(const SimConfig &cfg, const AppProfile &app, std::uint64_t seed,
         std::unique_ptr<InMemoryWorkload> &out)
{
    out.reset(); // free this app's previous trace first
    const std::int64_t t0 = nowNs();
    out = generateApp(app, seed);
    const auto machine = std::make_unique<Machine>(cfg, *out, nullptr);
    return toSeconds(nowNs() - t0);
}

/**
 * All seven apps are generated up front (set-up) and stay resident.
 * Each is run once untimed with a latency probe attached (the
 * reference); then the timed passes go round the apps until --seconds
 * have passed, so every app's median pass is taken over the whole run
 * rather than over a slice of it, as the host probe's median is.
 * sim_mips is the summed instructions over the summed per-app median
 * pass times.
 */
std::vector<Metric>
runWebEndToEnd(const Options &opt, Outcome &oc)
{
    const SimConfig cfg = configFor(opt.bench);
    const std::vector<AppProfile> apps = AppProfile::webSuite();
    HostProbe probe;
    std::vector<double> probe_ns;

    double setup_s = 0;
    std::vector<std::unique_ptr<InMemoryWorkload>> traces(apps.size());
    for (std::size_t i = 0; i < apps.size(); ++i) {
        std::vector<double> app_setup_s;
        for (unsigned k = 0; k < webSetups; ++k) {
            app_setup_s.push_back(setUpApp(cfg, apps[i], opt.seed,
                                           traces[i]));
            probe_ns.push_back(probe.run());
        }
        setup_s += median(app_setup_s);
    }

    double log_gain = 0;
    InstCount instrs = 0;
    Cycle cycles = 0;
    LatencyProbe latency;
    std::vector<SimResult> refs;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const InMemoryWorkload &w = *traces[i];
        ++oc.attempted;
        RunInstrumentation inst;
        inst.spans = &latency;
        refs.push_back(Simulator(cfg).run(w, inst));
        const SimResult &ref = refs.back();
        checkCommitted(oc, cfg, ref.core, w.numEvents(),
                       w.totalInstructions(), apps[i].name);
        instrs += ref.core.instructions;
        cycles += ref.cycles;

        if (opt.bench == Bench::WebEsp) {
            ++oc.attempted;
            const SimResult base = Simulator(SimConfig::baseline()).run(w);
            log_gain += std::log(ratio(static_cast<double>(base.cycles),
                                       static_cast<double>(ref.cycles)));
        }
    }

    std::vector<std::vector<double>> pass_s(apps.size());
    std::size_t rounds = 0;
    const std::int64_t start = nowNs();
    while (!done(start, opt.seconds, rounds, minPasses)) {
        for (std::size_t i = 0; i < apps.size(); ++i) {
            ++oc.attempted;
            const std::int64_t t0 = nowNs();
            const SimResult r = Simulator(cfg).run(*traces[i]);
            pass_s[i].push_back(toSeconds(nowNs() - t0));
            probe_ns.push_back(probe.run());
            std::string why;
            oc.check(sameStats(r.stats, refs[i].stats, why),
                     apps[i].name + ": repeat differs at " + why);
        }
        ++rounds;
    }
    double sim_s = 0;
    for (const std::vector<double> &s : pass_s)
        sim_s += median(s);

    const LatencySummary lat = summarizeLatency(latency.samples());
    std::fprintf(stderr,
                 "# %zu apps x %llu instructions, %zu timed rounds; "
                 "event latency samples: %llu\n",
                 apps.size(),
                 static_cast<unsigned long long>(webInstrsPerApp), rounds,
                 static_cast<unsigned long long>(lat.count));
    if (opt.bench == Bench::WebEsp) {
        const double gain =
            (std::exp(log_gain / static_cast<double>(apps.size())) - 1.0) *
            100.0;
        std::fprintf(stderr,
                     "# modelled ESP+NL gain over base: %.1f%% (geomean "
                     "of %zu apps); paper: %.0f%%; model error %+.1f "
                     "points (informational, not a metric)\n",
                     gain, apps.size(), paperEspNlGainPct,
                     gain - paperEspNlGainPct);
    }
    return e2eMetrics(static_cast<double>(instrs) / sim_s / 1e6, setup_s,
                      probe_ns,
                      ratio(static_cast<double>(instrs),
                            static_cast<double>(cycles)),
                      lat);
}

/** The serve stream is rebuilt per pass (as `espsim serve` does per
 *  config); requests are generated inside the timed run. */
std::vector<Metric>
runServeEndToEnd(const Options &opt, Outcome &oc)
{
    const SimConfig cfg = configFor(opt.bench);
    const ServerProfile profile = ServerProfile::memcached();

    // Set-up takes about a millisecond here, and the host's speed at
    // that scale shifts between regimes lasting tens of milliseconds,
    // so set-ups are timed in small batches spread over the whole run.
    std::vector<double> setup_s;
    const auto time_setups = [&] {
        for (unsigned k = 0; k < serveSetupsPerPass; ++k) {
            const std::int64_t t0 = nowNs();
            const RunInputs s = makeServe(profile, opt.seed, nullptr);
            const auto machine =
                std::make_unique<Machine>(cfg, *s.workload, nullptr);
            setup_s.push_back(toSeconds(nowNs() - t0));
        }
    };

    HostProbe probe;
    std::vector<double> probe_ns;
    SimResult ref;
    LatencySummary lat;
    std::vector<double> mips;
    const std::int64_t start = nowNs();
    while (!done(start, opt.seconds, mips.size(), minPasses)) {
        time_setups();
        const RunInputs s = makeServe(profile, opt.seed, nullptr);
        RunInstrumentation inst;
        inst.pacer = s.pacer.get();
        ++oc.attempted;
        const std::int64_t t0 = nowNs();
        SimResult r = Simulator(cfg).run(*s.workload, inst);
        mips.push_back(static_cast<double>(r.core.instructions) /
                       toSeconds(nowNs() - t0) / 1e6);
        probe_ns.push_back(probe.run());
        const LatencySummary l = summarizeLatency(s.pacer->totalLatency());
        if (mips.size() == 1) {
            ref = std::move(r);
            lat = l;
            continue;
        }
        std::string why;
        oc.check(sameStats(r.stats, ref.stats, why) && sameLatency(l, lat),
                 "serve repeat differs at " + why);
    }

    // Committed instructions against a fresh replay of the stream.
    const RunInputs count = makeServe(profile, opt.seed, nullptr);
    checkCommitted(oc, cfg, ref.core, serveEvents,
                   count.workload->totalInstructions(), profile.name);

    std::fprintf(stderr,
                 "# %zu timed passes of %zu requests; latency samples: "
                 "%llu in a %zu-sample reservoir\n",
                 mips.size(), serveEvents,
                 static_cast<unsigned long long>(lat.count),
                 serveReservoir);
    return e2eMetrics(median(mips), median(setup_s), probe_ns, ref.ipc,
                      lat);
}

/** Modelled stats summed over one traced run of each app or stream. */
struct ModelTotals
{
    double cycles = 0, instructions = 0;
    double buckets[numCycleBuckets] = {};
    double l1iMisses = 0, l1dMisses = 0, l1dAccesses = 0, l2Misses = 0;
    double branches = 0, mispredicts = 0;
    double preExecuted = 0;
    double nlIssued = 0, nlTimely = 0, espIssued = 0, espTimely = 0,
           espUsed = 0;

    void
    add(const TracedRun &r)
    {
        const StatGroup &s = r.stats;
        auto pf = [&s](const char *source, const char *what) {
            return s.get(std::string("mem.prefetch.") + source + "." + what);
        };
        cycles += s.get("core.cycles");
        instructions += s.get("core.instructions");
        for (unsigned b = 0; b < numCycleBuckets; ++b)
            buckets[b] += static_cast<double>(r.core.bucketCycles[b]);
        l1iMisses += s.get("mem.l1i.misses");
        l1dMisses += s.get("mem.l1d.misses");
        l1dAccesses += s.get("mem.l1d.accesses");
        l2Misses += s.get("mem.l2.misses");
        branches += s.get("core.branches");
        mispredicts += s.get("core.mispredicts");
        preExecuted += s.get("esp.pre_executed_instrs");
        for (const char *src : {"next_line_instr", "next_line_data"}) {
            nlIssued += pf(src, "issued");
            nlTimely += pf(src, "timely");
        }
        for (const char *src : {"esp_ilist", "esp_dlist"}) {
            espIssued += pf(src, "issued");
            espTimely += pf(src, "timely");
            espUsed += pf(src, "timely") + pf(src, "late");
        }
    }

    double
    bucketShare(CycleBucket b) const
    {
        return ratio(buckets[static_cast<std::size_t>(b)], cycles);
    }
};

/**
 * Probe readings per traced pass over the whole workload (all apps
 * once, or the stream once): each app's LayerTimes is divided by the
 * number of passes it ran, then summed.
 */
struct LayerSums
{
    double boundaryMs = 0, onStallMs = 0, onStallCalls = 0;
    double beforeOpMs = 0, beforeOpCalls = 0, hooksMs = 0;
    double pacerMs = 0, pacerCalls = 0;
    double makeEventMs = 0, makeEventCalls = 0, madeInstrs = 0;
    double warmupMs = 0, runMs = 0, statsMs = 0;
    std::vector<double> eventHostUs;
    std::vector<double> probeNs; //!< HostProbe readings between passes

    // Host time of the traced and untraced runs (per-app medians).
    double tracedS = 0, untracedS = 0;
    ModelTotals model;
    ReplayTotals replay;

    void
    add(const LayerTimes &t, std::size_t passes)
    {
        const double per = 1.0 / static_cast<double>(passes);
        const double ms = per / 1e6;
        boundaryMs += static_cast<double>(t.boundaryNs) * ms;
        onStallMs += static_cast<double>(t.onStallNs) * ms;
        onStallCalls += static_cast<double>(t.onStallCalls) * per;
        beforeOpMs += t.beforeOpNs() * ms;
        beforeOpCalls += static_cast<double>(t.beforeOpCalls) * per;
        hooksMs += t.hooksNs() * ms;
        pacerMs += static_cast<double>(t.pacerNs) * ms;
        pacerCalls += static_cast<double>(t.pacerCalls) * per;
        makeEventMs += static_cast<double>(t.makeEventNs) * ms;
        makeEventCalls += static_cast<double>(t.makeEventCalls) * per;
        madeInstrs += static_cast<double>(t.madeInstrs) * per;
        warmupMs += static_cast<double>(t.warmupNs) * ms;
        runMs += static_cast<double>(t.runNs) * ms;
        statsMs += static_cast<double>(t.statsNs) * ms;
        eventHostUs.insert(eventHostUs.end(), t.eventHostUs.begin(),
                           t.eventHostUs.end());
    }
};

/** Replay @p w's committed stream through a fresh hierarchy and
 *  predictor configured as in @p cfg, with the same warm L2. Returns
 *  the ops replayed. */
InstCount
replayWorkload(const SimConfig &cfg, const Workload &w, ReplayTotals &out)
{
    MemoryHierarchy mem(cfg.memory);
    PentiumMPredictor bp(cfg.branch);
    warmL2(mem, w);
    Cycle now = 0;
    InstCount ops = 0;
    for (std::size_t i = 0; i < w.numEvents(); ++i) {
        const EventTrace &event = w.event(i);
        replayEvent(event, mem, bp, now, out);
        ops += event.size();
    }
    return ops;
}

/** One input of the traced run and what its passes measured. */
struct TracedInput
{
    std::string name;
    LayerTimes times;
    std::vector<double> tracedS, untracedS;
    CoreStats first; //!< core stats of the first traced run
};

/**
 * One traced and one untraced run of @p in, in alternating order so
 * drift cancels; checks that the traced run's stats equal the
 * untraced run's. @p make builds a run's RunInputs, given the probe to
 * time its event source with (nullptr for the untraced run).
 */
template <typename Make>
void
tracePass(const SimConfig &cfg, TracedInput &in, Make make, Outcome &oc,
          ModelTotals &model)
{
    const bool traced_first = in.tracedS.size() % 2 == 0;
    TracedRun traced;
    SimResult plain;
    LatencySummary traced_lat, plain_lat;
    for (int side = 0; side < 2; ++side) {
        ++oc.attempted;
        if ((side == 0) == traced_first) {
            const RunInputs run = make(&in.times);
            traced = tracedRun(cfg, *run.workload, run.pacer.get(), in.times);
            in.tracedS.push_back(toSeconds(traced.wallNs));
            if (run.pacer)
                traced_lat = summarizeLatency(run.pacer->totalLatency());
        } else {
            const RunInputs run = make(nullptr);
            RunInstrumentation inst;
            inst.pacer = run.pacer.get();
            const std::int64_t t0 = nowNs();
            plain = Simulator(cfg).run(*run.workload, inst);
            in.untracedS.push_back(toSeconds(nowNs() - t0));
            if (run.pacer)
                plain_lat = summarizeLatency(run.pacer->totalLatency());
        }
    }
    std::string why;
    oc.check(statsContained(traced.stats, plain.stats, why) &&
                 sameLatency(traced_lat, plain_lat),
             in.name + ": traced run differs at " + why);
    if (in.tracedS.size() == 1) {
        model.add(traced);
        in.first = traced.core;
    }
}

/** Fold one input's passes into the per-pass sums. */
void
foldInput(const TracedInput &in, LayerSums &sums)
{
    sums.add(in.times, in.tracedS.size());
    sums.tracedS += median(in.tracedS);
    sums.untracedS += median(in.untracedS);
}

std::vector<Metric>
layerMetrics(const Options &opt, const LayerSums &s, double generate_ms,
             double events, double generated_instrs, double generations)
{
    const bool esp = configFor(opt.bench).engine == SpeculationEngine::Esp;
    const auto esp_only = [esp](double v) { return esp ? v : 0.0; };
    const ModelTotals &m = s.model;
    const double self_ms =
        s.runMs - s.hooksMs - s.pacerMs - s.makeEventMs;
    return {
        {"workload.generate_ms", generate_ms, "ms"},
        {"workload.events", events, "count"},
        {"workload.ns_per_instr", ratio(generate_ms * 1e6, generated_instrs),
         "ns"},
        {"workload.regen_ratio", ratio(generations, events), "ratio"},
        {"cpu.run_ms", s.runMs, "ms"},
        {"cpu.self_ms", self_ms, "ms"},
        {"cpu.ns_per_instr", ratio(s.runMs * 1e6, m.instructions), "ns"},
        {"cpu.event_host_us.p50", percentile(s.eventHostUs, 50.0), "us"},
        {"cpu.event_host_us.p99", percentile(s.eventHostUs, 99.0), "us"},
        {"cpu.cycle_bucket.icache_miss",
         m.bucketShare(CycleBucket::IcacheMiss), "fraction"},
        {"cpu.cycle_bucket.dcache_miss",
         m.bucketShare(CycleBucket::DcacheMiss), "fraction"},
        {"cpu.cycle_bucket.mispredict_redirect",
         m.bucketShare(CycleBucket::MispredictRedirect), "fraction"},
        {"cpu.cycle_bucket.esp_pre_exec",
         m.bucketShare(CycleBucket::EspPreExec), "fraction"},
        {"cpu.cycle_bucket.idle", m.bucketShare(CycleBucket::Idle),
         "fraction"},
        // Without ESP the probe wraps the core's no-op hooks; their
        // calls are not ESP work, so the esp.* readings are zero.
        {"esp.on_stall_ms", esp_only(s.onStallMs), "ms"},
        {"esp.on_stall_calls", esp_only(s.onStallCalls), "count"},
        {"esp.before_op_calls", esp_only(s.beforeOpCalls), "count"},
        {"esp.before_op_ms", esp_only(s.beforeOpMs), "ms"},
        {"esp.event_boundary_ms", esp_only(s.boundaryMs), "ms"},
        {"esp.pre_executed_instrs", m.preExecuted, "count"},
        {"esp.prefetch_accuracy", ratio(m.espUsed, m.espIssued),
         "fraction"},
        {"cache.replay_ns_per_access",
         ratio(static_cast<double>(s.replay.cacheNs),
               static_cast<double>(s.replay.accesses)),
         "ns"},
        {"cache.l1i_mpki", ratio(m.l1iMisses * 1e3, m.instructions),
         "MPKI"},
        {"cache.l1d_miss_rate", ratio(m.l1dMisses, m.l1dAccesses),
         "fraction"},
        {"cache.l2_mpki", ratio(m.l2Misses * 1e3, m.instructions), "MPKI"},
        {"branch.replay_ns_per_branch",
         ratio(static_cast<double>(s.replay.branchNs),
               static_cast<double>(s.replay.branches)),
         "ns"},
        {"branch.mispredict_rate", ratio(m.mispredicts, m.branches),
         "fraction"},
        {"prefetch.next_line.issued", m.nlIssued, "count"},
        {"prefetch.next_line.timely_ratio", ratio(m.nlTimely, m.nlIssued),
         "fraction"},
        {"prefetch.esp.issued", m.espIssued, "count"},
        {"prefetch.esp.timely_ratio", ratio(m.espTimely, m.espIssued),
         "fraction"},
        {"server.pacer_ms", s.pacerMs, "ms"},
        {"server.pacer_calls", s.pacerCalls, "count"},
        {"server.idle_fraction", m.bucketShare(CycleBucket::Idle),
         "fraction"},
        {"report.stats_ms", s.statsMs, "ms"},
        {"sim.warmup_ms", s.warmupMs, "ms"},
        {"bench.trace_overhead_pct",
         (ratio(s.tracedS, s.untracedS) - 1.0) * 100.0, "%"},
        {"bench.host_probe_ns", median(s.probeNs), "ns"},
    };
}

std::vector<Metric>
runWebTraced(const Options &opt, Outcome &oc)
{
    const SimConfig cfg = configFor(opt.bench);
    const std::vector<AppProfile> apps = AppProfile::webSuite();
    const double share = opt.seconds / static_cast<double>(apps.size());

    HostProbe probe;
    LayerSums sums;
    double generate_ns = 0, events = 0, instrs = 0;
    for (const AppProfile &app : apps) {
        const std::int64_t t0 = nowNs();
        const std::unique_ptr<InMemoryWorkload> w =
            generateApp(app, opt.seed);
        generate_ns += static_cast<double>(nowNs() - t0);
        events += static_cast<double>(w->numEvents());
        instrs += static_cast<double>(w->totalInstructions());

        const auto make = [&w](LayerTimes *) {
            RunInputs run;
            run.workload = w.get();
            return run;
        };
        TracedInput input{app.name, {}, {}, {}, {}};
        const std::int64_t start = nowNs();
        while (!done(start, share, input.tracedS.size(), minTracedPasses)) {
            tracePass(cfg, input, make, oc, sums.model);
            sums.probeNs.push_back(probe.run());
        }
        foldInput(input, sums);
        checkCommitted(oc, cfg, input.first, w->numEvents(),
                       w->totalInstructions(), app.name);
        replayWorkload(cfg, *w, sums.replay);
    }

    std::fprintf(stderr, "# %zu apps x %llu instructions\n", apps.size(),
                 static_cast<unsigned long long>(webInstrsPerApp));
    // Web traces are generated once each, up front: one generation per
    // event.
    return layerMetrics(opt, sums, generate_ns / 1e6, events, instrs,
                        events);
}

std::vector<Metric>
runServeTraced(const Options &opt, Outcome &oc)
{
    const SimConfig cfg = configFor(opt.bench);
    const ServerProfile profile = ServerProfile::memcached();

    const auto make = [&](LayerTimes *probe) {
        return makeServe(profile, opt.seed, probe);
    };
    TracedInput input{profile.name, {}, {}, {}, {}};
    HostProbe probe;
    LayerSums sums;
    const std::int64_t start = nowNs();
    while (!done(start, opt.seconds, input.tracedS.size(), minTracedPasses)) {
        tracePass(cfg, input, make, oc, sums.model);
        sums.probeNs.push_back(probe.run());
    }
    foldInput(input, sums);

    const RunInputs replay = makeServe(profile, opt.seed, nullptr);
    const InstCount stream_instrs =
        replayWorkload(cfg, *replay.workload, sums.replay);
    checkCommitted(oc, cfg, input.first, serveEvents, stream_instrs,
                   profile.name);

    std::fprintf(stderr, "# %zu requests per pass\n", serveEvents);
    return layerMetrics(opt, sums, sums.makeEventMs,
                        static_cast<double>(serveEvents), sums.madeInstrs,
                        sums.makeEventCalls);
}

// --- Command line and output -----------------------------------------

[[noreturn]] void
usage(const std::string &msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<web_base|web_esp|serve_memcached> [--seed N] "
                 "[--seconds S] [--trace 0|1]\n",
                 msg.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = value;
            have_workload = true;
            if (value == "web_base")
                opt.bench = Bench::WebBase;
            else if (value == "web_esp")
                opt.bench = Bench::WebEsp;
            else if (value == "serve_memcached")
                opt.bench = Bench::ServeMemcached;
            else
                usage("unknown workload " + value);
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (!(opt.seconds > 0.0 && opt.seconds <= 600.0))
                usage("--seconds must be in (0, 600]");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            opt.trace = value == "1";
        } else {
            usage("unknown flag " + flag);
        }
        if (end != nullptr && (*end != '\0' || value.empty()))
            usage("bad number " + value);
    }
    if (!have_workload)
        usage("--workload is required");
    return opt;
}

void
printResult(const Outcome &oc, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::fprintf(stderr, "  %-38s %16.6g %s\n", m.name.c_str(),
                     m.value, m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                oc.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(oc.attempted),
                static_cast<unsigned long long>(oc.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), v,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options opt = parseArgs(argc, argv);
    std::fprintf(stderr,
                 "# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                 opt.workload.c_str(),
                 static_cast<unsigned long long>(opt.seed), opt.seconds,
                 opt.trace ? 1 : 0);
    Outcome oc;
    std::vector<Metric> metrics;
    try {
        const bool serve = opt.bench == Bench::ServeMemcached;
        if (opt.trace)
            metrics =
                serve ? runServeTraced(opt, oc) : runWebTraced(opt, oc);
        else
            metrics = serve ? runServeEndToEnd(opt, oc)
                            : runWebEndToEnd(opt, oc);
    } catch (const std::exception &e) {
        // The run in flight failed; report the failure, not metrics.
        std::fprintf(stderr, "perfbench: run threw: %s\n", e.what());
        ++oc.failed;
        printResult(oc, {});
        return 1;
    }
    printResult(oc, metrics);
    return 0;
}
