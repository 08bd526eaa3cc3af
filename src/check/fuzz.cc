#include "check/fuzz.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "branch/pentium_m.hh"
#include "cache/hierarchy.hh"
#include "check/artifact_check.hh"
#include "common/rng.hh"
#include "esp/controller.hh"
#include "report/artifact.hh"
#include "report/json_reader.hh"
#include "report/telemetry.hh"
#include "sim/simulator.hh"
#include "sim/stats_report.hh"
#include "workload/generator.hh"
#include "workload/streaming.hh"

namespace espsim
{

namespace
{

using ULL = unsigned long long;

/** The architectural counts a speculation engine must not change. */
constexpr const char *archStats[] = {
    "core.instructions", "core.events", "core.branches",
    "core.loads",        "core.stores",
};

std::string
describeCase(const FuzzCase &c)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "config=%s events=%zu avgLen=%.0f minLen=%zu "
                  "handlers=%u depRate=%.3f profileSeed=%llu",
                  c.config.name.c_str(), c.profile.numEvents,
                  c.profile.avgEventLen, c.profile.minEventLen,
                  c.profile.numHandlerTypes, c.profile.dependencyRate,
                  static_cast<ULL>(c.profile.seed));
    return buf;
}

/** Oracle: every cycle is attributed to exactly one bucket. */
std::string
bucketMismatch(const SimResult &r)
{
    const std::string prefix = "core.cycle_bucket.";
    double sum = 0.0;
    bool any = false;
    for (const auto &[name, value] : r.stats.values()) {
        if (name.compare(0, prefix.size(), prefix) == 0) {
            sum += value;
            any = true;
        }
    }
    const double cycles = r.stats.get("core.cycles");
    if (!any)
        return "no core.cycle_bucket.* stats registered";
    // Bucket counters are integral cycle counts; the sum is exact in
    // a double up to 2^53 cycles, far beyond any fuzz workload.
    if (sum != cycles) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "bucket sum %.0f != core.cycles %.0f (%s)", sum,
                      cycles, r.configName.c_str());
        return buf;
    }
    return {};
}

/**
 * Oracle: drive an EspController's pre-execution directly and verify
 * speculative stores stayed inside the cachelets — the architectural
 * L1-D/L2 must hold zero dirty lines (prefetch fills are clean and no
 * demand write ever ran). Skipped for the naive strawman, whose whole
 * point is that pre-execution writes the real hierarchy.
 */
std::string
cacheletLeak(const FuzzCase &c, const Workload &workload)
{
    if (c.config.engine == SpeculationEngine::Esp &&
        c.config.esp.naiveMode) {
        return {};
    }
    EspConfig ecfg = c.config.engine == SpeculationEngine::Esp
        ? c.config.esp
        : EspConfig{};
    ecfg.naiveMode = false;
    MemoryHierarchy mem{c.config.memory};
    PentiumMPredictor bp;
    EspController esp(ecfg, mem, bp, workload, c.config.core.width);

    StallContext stallCtx;
    stallCtx.kind = StallKind::DataLlcMiss;
    stallCtx.idleCycles = 50'000;

    Cycle now = 0;
    const std::size_t events =
        std::min<std::size_t>(workload.numEvents(), 6);
    for (std::size_t ev = 0; ev < events; ++ev) {
        esp.onEventStart(ev, now);
        for (int k = 0; k < 6; ++k)
            esp.onStall(stallCtx);
        now += 10'000;
        esp.onEventEnd(ev, now);
    }
    const std::size_t l1dDirty = mem.l1d().dirtyPopulation();
    const std::size_t l2Dirty = mem.l2().dirtyPopulation();
    if (l1dDirty != 0 || l2Dirty != 0) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "speculative stores leaked: %zu dirty L1-D, "
                      "%zu dirty L2 lines",
                      l1dDirty, l2Dirty);
        return buf;
    }
    return {};
}

/** Exact comparison of two sweeps' stat snapshots. */
std::string
sweepMismatch(const std::vector<SuiteRow> &a,
              const std::vector<SuiteRow> &b,
              const std::vector<SimConfig> &configs)
{
    for (std::size_t r = 0; r < a.size(); ++r) {
        for (std::size_t cfg = 0; cfg < configs.size(); ++cfg) {
            const auto &sa = a[r].results[cfg].stats.values();
            const auto &sb = b[r].results[cfg].stats.values();
            if (sa.size() != sb.size())
                return "stat snapshots differ in size for config " +
                    configs[cfg].name;
            auto ia = sa.begin();
            auto ib = sb.begin();
            for (; ia != sa.end(); ++ia, ++ib) {
                if (ia->first != ib->first ||
                    ia->second != ib->second) {
                    char buf[160];
                    std::snprintf(
                        buf, sizeof(buf),
                        "%s / %s: jobs=1 %.17g vs jobs=4 %.17g",
                        configs[cfg].name.c_str(), ia->first.c_str(),
                        ia->second, ib->second);
                    return buf;
                }
            }
        }
    }
    return {};
}

/**
 * Oracle: the suite JSON artifact passes the artifact checker, and
 * every stat value round-trips exactly (the writer uses
 * shortest-round-trip formatting).
 */
std::string
roundtripMismatch(const std::vector<SimConfig> &configs,
                  const std::vector<SuiteRow> &rows)
{
    ArtifactManifest manifest;
    manifest.source = "espsim-fuzz";
    const std::string json =
        renderSuiteArtifactJson(manifest, configs, rows);
    if (const Problems problems = checkArtifact(json); !problems.empty())
        return "artifact: " + problems.front();
    const std::unique_ptr<JsonValue> doc = parseJson(json);
    std::size_t i = 0;
    for (const SuiteRow &row : rows) {
        for (std::size_t cfg = 0; cfg < configs.size(); ++cfg, ++i) {
            const JsonValue &stats =
                doc->at("results").array[i].at("stats");
            for (const auto &[name, value] :
                 row.results[cfg].stats.values()) {
                const JsonValue *parsed = stats.find(name);
                if (!parsed || !parsed->isNumber() ||
                    parsed->number != value) {
                    return "stat '" + name +
                        "' did not round-trip through JSON";
                }
            }
        }
    }
    return {};
}

/**
 * Oracle: the streaming workload core is a perfect stand-in for a
 * fully-materialised trace. Replaying each config through its own
 * StreamingWorkload (bounded sliding window, one reader) must yield a
 * byte-identical suite artifact — not just equal stats, the exact
 * same serialised bytes.
 */
std::string
streamingMismatch(const FuzzCase &c,
                  const std::vector<SimConfig> &configs,
                  const std::vector<SuiteRow> &materialized)
{
    SuiteRow row;
    row.app = c.profile.name;
    for (const SimConfig &config : configs) {
        StreamingWorkload streamed(
            std::make_unique<GeneratorSource>(c.profile));
        try {
            row.results.push_back(Simulator(config).run(streamed));
        } catch (const std::exception &e) {
            return "streamed replay failed (" + config.name +
                "): " + e.what();
        }
    }
    ArtifactManifest manifest;
    manifest.source = "espsim-fuzz";
    const std::string a =
        renderSuiteArtifactJson(manifest, configs, materialized);
    const std::string b =
        renderSuiteArtifactJson(manifest, configs, {row});
    if (a != b)
        return "streamed artifact bytes differ from materialised "
               "trace (same profile seed " +
            std::to_string(c.profile.seed) + ")";
    return {};
}

/**
 * Oracle: the counter stream closes. At a random cycle period, the
 * sampler's telemetry block (captured in memory) must have a
 * contiguous 1-based seq, monotone cycle, events and counters, and
 * exactly one final line, the last; the final values must equal the
 * run's end-of-run stats *exactly* (counters are uint64-backed, exact
 * in a double below 2^53).
 */
std::string
counterStreamMismatch(const FuzzCase &c, const Workload &workload)
{
    // Periods from a case-derived stream: short ones stress the
    // grid-advance logic hardest.
    Rng rng(c.caseSeed ^ 0x1257a15a3713ULL);
    LiveTelemetry live;
    live.periodCycles = 500 + rng.below(30'000);
    std::string captured;
    TelemetryStream stream;
    stream.captureTo(&captured);
    live.stream = &stream;
    RunInstrumentation inst;
    inst.telemetry = &live;
    const SimResult r = Simulator(c.config).run(workload, inst);

    const std::string period =
        " (period " + std::to_string(live.periodCycles) + " cycles)";
    if (const Problems problems = checkArtifact(captured, true);
        !problems.empty())
        return problems.front() + period;
    // One block: the header names the counters, the last line is the
    // final snapshot.
    const std::size_t last = captured.rfind('\n', captured.size() - 2);
    const auto header = parseJson(captured.substr(0, captured.find('\n')));
    const auto final_ = parseJson(captured.substr(last + 1));
    const std::vector<JsonValue> &names = header->at("names").array;
    const std::vector<JsonValue> &values = final_->at("values").array;
    if (values.size() != names.size())
        return "the run wrote more than one block" + period;
    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::string &name = names[i].string;
        if (!r.stats.has(name) || values[i].number != r.stats.get(name)) {
            char buf[192];
            std::snprintf(buf, sizeof(buf),
                          "%s: final line %.17g != end-of-run %.17g",
                          name.c_str(), values[i].number,
                          r.stats.get(name));
            return buf + period;
        }
    }
    return {};
}

} // namespace

FuzzCase
makeFuzzCase(std::uint64_t case_seed)
{
    Rng rng(case_seed);
    FuzzCase c;
    c.caseSeed = case_seed;

    AppProfile p = AppProfile::testProfile();
    p.name = "fuzz";
    p.description = "randomised fuzz profile";
    p.seed = rng.next();
    p.numEvents = 4 + rng.below(13);       // 4..16 events
    p.avgEventLen = 200.0 +
        static_cast<double>(rng.below(801)); // 200..1000 instructions
    p.minEventLen = 60 + rng.below(61);
    p.numHandlerTypes = 2 + static_cast<unsigned>(rng.below(7));
    p.windowsPerEvent = 4 + static_cast<unsigned>(rng.below(9));
    p.dependencyRate = 0.10 * rng.real();
    p.loadFrac = 0.15 + 0.15 * rng.real();
    p.storeFrac = 0.05 + 0.10 * rng.real();
    p.sharedCodeFraction = 0.10 + 0.30 * rng.real();
    p.coldCodeFraction = 0.02 + 0.15 * rng.real();
    p.biasedBranchFrac = 0.50 + 0.40 * rng.real();
    p.branchBias = 0.80 + 0.19 * rng.real();
    p.argFrac = 0.05 + 0.10 * rng.real();
    p.sharedHeapFrac = 0.10 + 0.20 * rng.real();
    p.allocFrac = 0.05 + 0.10 * rng.real();
    p.coldDataFrac = 0.01 * rng.real();
    p.dataRepeatFrac = 0.30 + 0.40 * rng.real();
    c.profile = p;

    // A speculative design point from the paper's evaluated family.
    switch (rng.below(7)) {
      case 0:
        c.config = SimConfig::espFull(true);
        break;
      case 1:
        c.config = SimConfig::espFull(false);
        break;
      case 2:
        c.config = SimConfig::espNaive(true);
        break;
      case 3: {
          bool use_i = rng.chance(0.5);
          bool use_b = rng.chance(0.5);
          bool use_d = rng.chance(0.5);
          if (!use_i && !use_b && !use_d)
              use_i = true;
          c.config = SimConfig::espAblation(use_i, use_b, use_d);
          break;
      }
      case 4:
        c.config = SimConfig::espInstrOnly(rng.chance(0.5), false);
        break;
      case 5:
        c.config = SimConfig::espDataOnly(rng.chance(0.5), false);
        break;
      default:
        c.config = SimConfig::runaheadExec(rng.chance(0.5));
        break;
    }
    if (c.config.engine == SpeculationEngine::Esp) {
        c.config.esp.prefetchLeadInstructions = 32 + rng.below(400);
        c.config.esp.branchTrainLookahead = 8 + rng.below(96);
        c.config.esp.maxPreExecPerEvent = 1000 + rng.below(12'000);
        c.config.esp.contextSwitchCycles = rng.below(10);
    }
    return c;
}

FuzzFailure
checkFuzzCase(const FuzzCase &c)
{
    SyntheticGenerator gen(c.profile);
    const std::unique_ptr<InMemoryWorkload> workload = gen.generate();

    // Oracle: cachelet containment, on the raw controller.
    if (std::string m = cacheletLeak(c, *workload); !m.empty())
        return {"cachelet-containment", std::move(m)};

    // One sweep of {ESP-off, ESP-on} at jobs=1 and jobs=4 feeds the
    // remaining oracles.
    const std::vector<SimConfig> configs{SimConfig::baseline(),
                                         c.config};
    SuiteRunner runner({c.profile});
    runner.setJobs(1);
    const std::vector<SuiteRow> rows1 = runner.run(configs);
    runner.setJobs(4);
    const std::vector<SuiteRow> rows4 = runner.run(configs);
    if (suiteHasErrors(rows1) || suiteHasErrors(rows4)) {
        for (const std::vector<SuiteRow> *rows : {&rows1, &rows4}) {
            for (const SuiteRow &row : *rows) {
                for (std::size_t cfg = 0; cfg < configs.size();
                     ++cfg) {
                    if (!row.ok(cfg)) {
                        return {"sweep-error",
                                configs[cfg].name + ": " +
                                    row.errors[cfg].message};
                    }
                }
            }
        }
    }

    // Oracle: bit-identical results at any job count.
    if (std::string m = sweepMismatch(rows1, rows4, configs);
        !m.empty()) {
        return {"jobs-determinism", std::move(m)};
    }

    // Oracle: cycle accounting closes for both design points.
    for (const SimResult &r : rows1[0].results) {
        if (std::string m = bucketMismatch(r); !m.empty())
            return {"cycle-bucket-sum", std::move(m)};
    }

    // Oracle: speculation must not change architectural results.
    const SimResult &off = rows1[0].results[0];
    const SimResult &on = rows1[0].results[1];
    for (const char *stat : archStats) {
        if (off.stats.get(stat) != on.stats.get(stat)) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "%s: %s %.0f vs %s %.0f", stat,
                          configs[0].name.c_str(),
                          off.stats.get(stat),
                          configs[1].name.c_str(), on.stats.get(stat));
            return {"arch-equality", buf};
        }
    }

    // Oracle: the artifact is a faithful serialisation.
    if (std::string m = roundtripMismatch(configs, rows1); !m.empty())
        return {"artifact-roundtrip", std::move(m)};

    // Oracle: streamed window replay == fully-materialised trace.
    if (std::string m = streamingMismatch(c, configs, rows1);
        !m.empty()) {
        return {"streaming-equivalence", std::move(m)};
    }

    // Oracle: the counter stream closes at any cycle period.
    if (std::string m = counterStreamMismatch(c, *workload);
        !m.empty()) {
        return {"counter-stream-closure", std::move(m)};
    }

    return {};
}

FuzzCase
shrinkFuzzCase(const FuzzCase &c, const std::string &oracle)
{
    FuzzCase best = c;
    bool progress = true;
    int attempts = 0;
    // Greedy halving over the scale knobs: accept any mutation that
    // keeps the same oracle failing, until a fixpoint (or a budget —
    // each attempt re-runs the whole case).
    while (progress && attempts < 32) {
        progress = false;
        for (int knob = 0; knob < 4; ++knob) {
            FuzzCase cand = best;
            AppProfile &p = cand.profile;
            switch (knob) {
              case 0:
                if (p.numEvents < 4)
                    continue;
                p.numEvents /= 2;
                break;
              case 1:
                if (p.avgEventLen < 200.0)
                    continue;
                p.avgEventLen /= 2;
                p.minEventLen = std::min<std::size_t>(
                    p.minEventLen,
                    static_cast<std::size_t>(p.avgEventLen / 2));
                break;
              case 2:
                if (p.numHandlerTypes < 2)
                    continue;
                p.numHandlerTypes /= 2;
                break;
              default:
                if (p.dependencyRate == 0.0)
                    continue;
                p.dependencyRate = 0.0;
                break;
            }
            ++attempts;
            if (checkFuzzCase(cand).oracle == oracle) {
                best = cand;
                progress = true;
            }
        }
    }
    return best;
}

int
runFuzz(const FuzzOptions &opts)
{
    for (std::size_t i = 0; i < opts.runs; ++i) {
        const std::uint64_t caseSeed = opts.seed + i;
        const FuzzCase c = makeFuzzCase(caseSeed);
        if (opts.verbose) {
            std::fprintf(stderr, "# fuzz case %zu/%zu seed=%llu %s\n",
                         i + 1, opts.runs,
                         static_cast<ULL>(caseSeed),
                         describeCase(c).c_str());
        }
        const FuzzFailure f = checkFuzzCase(c);
        if (!f.failed())
            continue;
        std::fprintf(stderr,
                     "fuzz: case %zu (seed %llu) FAILED oracle "
                     "'%s'\nfuzz: %s\n",
                     i + 1, static_cast<ULL>(caseSeed),
                     f.oracle.c_str(), f.message.c_str());
        const FuzzCase small = shrinkFuzzCase(c, f.oracle);
        std::fprintf(stderr, "fuzz: minimal failing point: %s\n",
                     describeCase(small).c_str());
        std::fprintf(stderr,
                     "fuzz: repro: espsim fuzz --runs 1 --seed %llu\n",
                     static_cast<ULL>(caseSeed));
        return 1;
    }
    std::printf("fuzz: %zu case%s passed, seeds %llu..%llu\n",
                opts.runs, opts.runs == 1 ? "" : "s",
                static_cast<ULL>(opts.seed),
                static_cast<ULL>(opts.seed + opts.runs - 1));
    return 0;
}

} // namespace espsim
