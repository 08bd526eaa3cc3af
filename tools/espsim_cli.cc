/**
 * @file
 * `espsim` — the command-line driver an OSS release ships:
 *
 *   espsim run   --app amazon --config ESP+NL [--stats]
 *   espsim run   --trace file.espw --config NL+S
 *   espsim run   --app bing --timeline out.trace.json
 *                [--timeline-limit N] [--telemetry [path]]
 *                [--telemetry-period N]
 *   espsim suite --configs base,NL,ESP+NL [--jobs N] [--apps a,b]
 *                [--json [path]]
 *   espsim serve --profile memcached --events 1000000
 *                [--configs base,ESP+NL] [--gap CYCLES]
 *                [--json [path]] [--trace-spans [path]] [--worst N]
 *   espsim gen   --app gmaps --out gmaps.espw [--events N]
 *   espsim diff  baseline.json candidate.json [--rel-tol F]
 *                [--abs-tol F] [--max-rows N] [--ignore-config-hash]
 *   espsim fuzz  [--runs N] [--seed S] [--verbose]
 *   espsim list  (apps and configs)
 *   espsim --version
 *
 * Every subcommand accepts --log-level error|warn|info|debug (also
 * the ESPSIM_LOG environment variable); run chatter is gated at info.
 *
 * Tables and results print to stdout; run chatter (manifest, artifact
 * notes) goes to stderr. Exit code 0 on success, 1 on usage errors,
 * 2 on an unknown subcommand, on malformed option values (numeric
 * options go through checked helpers that reject trailing garbage, a
 * sign or leading whitespace on an unsigned value, a value too large
 * for the option, and a non-finite or negative value on a real-valued
 * one), on a flag the
 * subcommand does not take, and on a flag that would do nothing
 * without another one (--telemetry-period without --telemetry,
 * --timeline-limit without --timeline, --worst without
 * --trace-spans).
 * `espsim diff` exits 0 when every stat agrees within tolerance, 1 on
 * any drift (an added or removed stat, a missing point or a candidate
 * error cell included) or a config mismatch, 2 on load failure.
 * `espsim suite` exits 1 when any sweep cell failed (its artifact
 * then carries an `errors` block; see docs/ROBUSTNESS.md).
 * `espsim fuzz` runs the src/check/ property harness and exits 1 on
 * the first oracle violation, printing a shrunken repro.
 */

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <chrono>

#include "check/fuzz.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/version.hh"
#include "report/artifact.hh"
#include "report/diff.hh"
#include "report/host_profile.hh"
#include "report/telemetry.hh"
#include "report/timeline.hh"
#include "server/serve.hh"
#include "sim/stats_report.hh"
#include "trace/trace_io.hh"
#include "workload/generator.hh"
#include "workload/streaming.hh"

using namespace espsim;

namespace
{

int
usage()
{
    std::puts(
        "usage:\n"
        "  espsim run   --app <name>|--trace <file> --config <name> "
        "[--stats] [--timeline <file>]\n"
        "               [--timeline-limit N] [--telemetry [path]] "
        "[--telemetry-period N]\n"
        "  espsim suite [--configs a,b,c] [--apps a,b] [--jobs N] "
        "[--json [path]]\n"
        "  espsim serve [--profile memcached|testsrv] "
        "[--configs a,b] [--events N] [--window N]\n"
        "               [--reservoir N] [--gap CYCLES] [--seed S] "
        "[--json [path]]\n"
        "               [--trace-spans [path]] [--worst N]\n"
        "               [--telemetry [path]] [--telemetry-period N]\n"
        "  espsim gen   --app <name> --out <file> [--events N]\n"
        "  espsim diff  <baseline.json> <candidate.json> "
        "[--rel-tol F] [--abs-tol F]\n"
        "               [--max-rows N] [--ignore-config-hash]\n"
        "  espsim fuzz  [--runs N] [--seed S] [--verbose]\n"
        "  espsim list\n"
        "  espsim --version\n"
        "global: --log-level error|warn|info|debug (or ESPSIM_LOG)");
    return 1;
}

/**
 * Checked numeric option parsing: every numeric flag goes through one
 * of these instead of raw std::stoul / strtod, so `--events abc` (or
 * `--rel-tol 0.1x`) prints the usage text and exits 2 instead of
 * aborting on an uncaught std::invalid_argument or silently reading
 * a half-parsed value. Trailing garbage is rejected, and an unsigned
 * value must start with a digit: strtoul skips leading whitespace and
 * wraps a minus sign, so " -5" would otherwise read as 2^64 - 5. A
 * value above @p max is rejected too: a flag stored in an `unsigned`
 * passes UINT_MAX, so 2^32 cannot wrap to 0 after the check. A value
 * below @p min is rejected rather than clamped: `serve --window 0`
 * once ran at the streaming minimum of 4 but recorded 0. Every
 * real-valued option is a gap, threshold, budget or tolerance, so a
 * real value must be finite and non-negative: strtod accepts "nan" and
 * "inf", and a NaN gap once ran with a wrapped cycle count.
 */
unsigned long
parseUnsignedOption(const std::string &value, const char *flag,
                    unsigned long max = ULONG_MAX,
                    unsigned long min = 0)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long v = std::strtoul(value.c_str(), &end, 10);
    if (value.empty() ||
        !std::isdigit(static_cast<unsigned char>(value[0])) ||
        end != value.c_str() + value.size() || errno == ERANGE ||
        v > max || v < min) {
        logLine(LogLevel::Error,
                "invalid value '%s' for --%s (expected an integer "
                "from %lu to %lu)",
                value.c_str(), flag, min, max);
        usage();
        std::exit(2);
    }
    return v;
}

double
parseDoubleOption(const std::string &value, const char *flag)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(value.c_str(), &end);
    if (value.empty() || end != value.c_str() + value.size() ||
        errno == ERANGE || !std::isfinite(v) || v < 0) {
        logLine(LogLevel::Error,
                "invalid value '%s' for --%s (expected a finite, "
                "non-negative number)",
                value.c_str(), flag);
        usage();
        std::exit(2);
    }
    return v;
}

/**
 * Exit 2 when @p flag was given but @p ok is false: without @p needs
 * the flag would silently do nothing.
 */
void
requireWith(const std::map<std::string, std::string> &flags,
            const char *flag, bool ok, const char *needs)
{
    if (ok || flags.count(flag) == 0)
        return;
    logLine(LogLevel::Error, "--%s does nothing without %s", flag,
            needs);
    usage();
    std::exit(2);
}

/** Build/run manifest on stderr; artifacts stay free of such facts. */
void
printRunManifest()
{
    logLine(LogLevel::Info, "# espsim %s (%s build)", versionString(),
            buildTypeString());
}

/**
 * Minimal flag parser: --key value pairs after the subcommand. A
 * following argument is the flag's value unless it is itself a flag,
 * so a negative number ("--gap -5") reaches the value checks instead
 * of leaving the flag at its "1" placeholder.
 */
std::map<std::string, std::string>
parseFlags(int argc, char **argv, int from)
{
    std::map<std::string, std::string> flags;
    for (int i = from; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            continue;
        const std::string key = arg.substr(2);
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
            flags[key] = argv[++i];
        else
            flags[key] = "1";
    }
    return flags;
}

/**
 * The flags each parseFlags subcommand takes (--log-level is global).
 * main() rejects any other, so a misspelled or retired flag fails
 * instead of being ignored.
 */
const std::map<std::string, std::set<std::string>> &
commandFlags()
{
    static const std::map<std::string, std::set<std::string>> known{
        {"list", {}},
        {"run",
         {"app", "trace", "config", "stats", "timeline",
          "timeline-limit", "telemetry", "telemetry-period"}},
        {"suite", {"configs", "apps", "jobs", "json"}},
        {"serve",
         {"profile", "configs", "events", "window", "reservoir", "gap",
          "seed", "json", "trace-spans", "worst", "telemetry",
          "telemetry-period"}},
        {"gen", {"app", "out", "events"}},
        {"fuzz", {"runs", "seed", "verbose"}},
    };
    return known;
}

std::optional<SimConfig>
lookupConfig(const std::string &name)
{
    const auto &reg = namedConfigs();
    auto it = reg.find(name);
    if (it == reg.end()) {
        logLine(LogLevel::Error,
                "unknown config '%s' (try: espsim list)", name.c_str());
        return std::nullopt;
    }
    return it->second();
}

int
cmdList()
{
    std::puts("applications:");
    for (const AppProfile &p : AppProfile::webSuite())
        std::printf("  %-9s %s\n", p.name.c_str(),
                    p.description.c_str());
    std::puts("configs:");
    for (const auto &[name, make] : namedConfigs()) {
        (void)make;
        std::printf("  %s\n", name.c_str());
    }
    return 0;
}

int
cmdRun(const std::map<std::string, std::string> &flags)
{
    const bool telemetry_on = flags.count("telemetry") != 0;
    requireWith(flags, "telemetry-period", telemetry_on, "--telemetry");
    const auto tl_it = flags.find("timeline");
    const bool want_timeline = tl_it != flags.end();
    requireWith(flags, "timeline-limit", want_timeline, "--timeline");
    const auto cfg_it = flags.find("config");
    const std::string cfg_name =
        cfg_it == flags.end() ? "ESP+NL" : cfg_it->second;
    const auto config = lookupConfig(cfg_name);
    if (!config)
        return 1;

    std::unique_ptr<InMemoryWorkload> workload;
    if (auto it = flags.find("trace"); it != flags.end()) {
        workload = loadWorkload(it->second);
        if (!workload) {
            logLine(LogLevel::Error, "malformed trace file '%s'",
                    it->second.c_str());
            return 1;
        }
    } else {
        const auto app_it = flags.find("app");
        const std::string app =
            app_it == flags.end() ? "amazon" : app_it->second;
        workload = SyntheticGenerator(AppProfile::byName(app)).generate();
    }

    printRunManifest();
    EventTimeline timeline;
    if (auto it = flags.find("timeline-limit"); it != flags.end()) {
        timeline.setEventLimit(static_cast<std::size_t>(
            parseUnsignedOption(it->second, "timeline-limit")));
    }
    // Timelines stream to disk record-by-record so a long run never
    // buffers its whole trace.
    if (want_timeline && !timeline.streamTo(tl_it->second)) {
        logLine(LogLevel::Error, "cannot write timeline '%s'",
                tl_it->second.c_str());
        return 1;
    }

    RunInstrumentation inst;
    inst.timeline = want_timeline ? &timeline : nullptr;

    // Telemetry stream (single-run form of the serve stream), an
    // observer independent of the timeline.
    TelemetryStream telemetry_stream;
    LiveTelemetry live;
    if (auto it = flags.find("telemetry"); it != flags.end()) {
        const std::string path =
            it->second == "1" ? "espsim_telemetry.jsonl" : it->second;
        if (!telemetry_stream.openFile(path)) {
            logLine(LogLevel::Error,
                    "cannot open telemetry stream '%s'", path.c_str());
            return 1;
        }
        live.stream = &telemetry_stream;
        inst.telemetry = &live;
    }
    if (auto it = flags.find("telemetry-period"); it != flags.end())
        live.periodCycles =
            parseUnsignedOption(it->second, "telemetry-period");
    if (telemetry_on && live.periodCycles == 0)
        live.periodCycles = 1'000'000;

    const SimResult r = Simulator(*config).run(*workload, inst);
    if (telemetry_on) {
        if (!telemetry_stream.close()) {
            logLine(LogLevel::Error, "telemetry stream: write failed");
            return 1;
        }
        logLine(LogLevel::Info, "# wrote %llu telemetry lines",
                static_cast<unsigned long long>(
                    telemetry_stream.linesWritten()));
    }
    std::printf("%s on %s: %llu cycles, IPC %.3f, L1I-MPKI %.2f, "
                "L1D-miss %.2f%%, BP-miss %.2f%%\n",
                r.configName.c_str(), r.workloadName.c_str(),
                static_cast<unsigned long long>(r.cycles), r.ipc,
                r.l1iMpki, 100.0 * r.l1dMissRate,
                100.0 * r.mispredictRate);
    if (flags.count("stats"))
        std::fputs(r.stats.dump("  ").c_str(), stdout);
    if (want_timeline) {
        if (!timeline.closeStream()) {
            logLine(LogLevel::Error, "cannot write timeline '%s'",
                    tl_it->second.c_str());
            return 1;
        }
        logLine(LogLevel::Info,
                "# wrote %s (%zu events, %zu stalls, %zu ESP "
                "windows) — load it in ui.perfetto.dev or "
                "chrome://tracing",
                tl_it->second.c_str(), timeline.numEvents(),
                timeline.numStalls(), timeline.numEspWindows());
    }
    return 0;
}

int
cmdSuite(const std::map<std::string, std::string> &flags)
{
    std::vector<std::string> names{"base", "NL+S", "Runahead+NL",
                                   "ESP+NL"};
    if (auto it = flags.find("configs"); it != flags.end()) {
        names.clear();
        std::stringstream ss(it->second);
        std::string token;
        while (std::getline(ss, token, ','))
            names.push_back(token);
    }
    std::vector<SimConfig> configs;
    for (const std::string &name : names) {
        const auto cfg = lookupConfig(name);
        if (!cfg)
            return 1;
        configs.push_back(*cfg);
    }

    std::vector<AppProfile> apps = AppProfile::webSuite();
    if (auto it = flags.find("apps"); it != flags.end()) {
        std::vector<AppProfile> picked;
        std::stringstream ss(it->second);
        std::string token;
        while (std::getline(ss, token, ',')) {
            bool found = false;
            for (const AppProfile &p : apps) {
                if (p.name == token) {
                    picked.push_back(p);
                    found = true;
                    break;
                }
            }
            if (!found) {
                logLine(LogLevel::Error,
                        "unknown app '%s' (try: espsim list)",
                        token.c_str());
                return 1;
            }
        }
        apps = std::move(picked);
    }

    printRunManifest();
    SuiteRunner runner(apps);
    if (auto it = flags.find("jobs"); it != flags.end()) {
        const unsigned long jobs =
            parseUnsignedOption(it->second, "jobs", UINT_MAX);
        runner.setJobs(jobs >= 1 ? static_cast<unsigned>(jobs) : 1);
    }
    const auto rows = runner.run(configs, true);
    TextTable table("suite results (cycles; % improvement over first "
                    "config)");
    std::vector<std::string> header{"app"};
    for (const auto &cfg : configs)
        header.push_back(cfg.name);
    table.header(header);
    for (const SuiteRow &row : rows) {
        std::vector<std::string> cells{row.app};
        for (std::size_t c = 0; c < configs.size(); ++c) {
            if (!row.ok(c) || (c != 0 && !row.ok(0))) {
                cells.push_back("ERROR!");
            } else if (c == 0) {
                cells.push_back(TextTable::num(
                    static_cast<double>(row.results[0].cycles), 0));
            } else {
                cells.push_back(
                    TextTable::num(row.results[c].improvementPctOver(
                                       row.results[0]),
                                   1) +
                    "%");
            }
        }
        table.row(cells);
    }
    std::fputs(table.render().c_str(), stdout);
    for (const SuiteRow &row : rows) {
        for (std::size_t c = 0;
             c < configs.size() && c < row.errors.size(); ++c) {
            if (!row.ok(c)) {
                logLine(LogLevel::Error, "error cell (%s, %s): %s",
                        row.app.c_str(), configs[c].name.c_str(),
                        row.errors[c].message.c_str());
            }
        }
    }

    // "--json" with no following path gets parseFlags' "1"
    // placeholder; map that to the default artifact name.
    ArtifactManifest manifest;
    manifest.source = "espsim suite";
    if (auto it = flags.find("json"); it != flags.end()) {
        const std::string path =
            it->second == "1" ? "espsim_suite.json" : it->second;
        if (!writeTextFile(path, renderSuiteArtifactJson(
                                     manifest, configs, rows))) {
            logLine(LogLevel::Error, "cannot write '%s'",
                    path.c_str());
            return 1;
        }
        logLine(LogLevel::Info, "# wrote %s", path.c_str());
    }
    // Degraded sweeps exit non-zero so CI notices, even though every
    // healthy cell completed and the artifacts were still written.
    return suiteHasErrors(rows) ? 1 : 0;
}

/**
 * `espsim serve` — server-scale tail-latency runs. Streams the
 * memcached-style key/value request profile through every requested
 * config under Poisson arrivals, prints a tail-latency table, and
 * writes the versioned espsim-latency-artifact (see docs/WORKLOADS.md). Peak RSS is logged to stderr so the
 * serve_1m ctest can assert flat memory between 100k and 1M runs.
 */
int
cmdServe(const std::map<std::string, std::string> &flags)
{
    const auto prof_it = flags.find("profile");
    const std::string prof_name =
        prof_it == flags.end() ? "memcached" : prof_it->second;
    const ServerProfile profile = ServerProfile::byName(prof_name);

    std::vector<std::string> names{"base", "ESP+NL"};
    if (auto it = flags.find("configs"); it != flags.end()) {
        names.clear();
        std::stringstream ss(it->second);
        std::string token;
        while (std::getline(ss, token, ','))
            names.push_back(token);
    }
    std::vector<SimConfig> configs;
    for (const std::string &name : names) {
        const auto cfg = lookupConfig(name);
        if (!cfg)
            return 1;
        configs.push_back(*cfg);
    }

    ServeOptions opts;
    if (auto it = flags.find("events"); it != flags.end())
        opts.events = static_cast<std::size_t>(
            parseUnsignedOption(it->second, "events"));
    if (auto it = flags.find("window"); it != flags.end())
        opts.window = static_cast<std::size_t>(
            parseUnsignedOption(it->second, "window", ULONG_MAX,
                                StreamingWorkload::minWindow));
    if (auto it = flags.find("reservoir"); it != flags.end())
        opts.reservoirCapacity = static_cast<std::size_t>(
            parseUnsignedOption(it->second, "reservoir"));
    if (auto it = flags.find("gap"); it != flags.end())
        opts.arrival.meanGapCycles =
            parseDoubleOption(it->second, "gap");
    if (auto it = flags.find("seed"); it != flags.end())
        opts.arrival.seed = parseUnsignedOption(it->second, "seed");

    // --- span tracing ----------------------------------------------
    const bool spans_on = flags.count("trace-spans") > 0;
    requireWith(flags, "worst", spans_on, "--trace-spans");
    opts.spans.enabled = spans_on;
    if (auto it = flags.find("worst"); it != flags.end())
        opts.spans.worstK = static_cast<std::size_t>(
            parseUnsignedOption(it->second, "worst"));

    // --- live telemetry ----------------------------------------------
    const bool telemetry_on = flags.count("telemetry") != 0;
    requireWith(flags, "telemetry-period", telemetry_on, "--telemetry");
    if (auto it = flags.find("telemetry-period"); it != flags.end())
        opts.telemetry.periodCycles =
            parseUnsignedOption(it->second, "telemetry-period");
    // A sink without a pace would never snapshot; default to a cycle
    // grid coarse enough to be invisible in the overhead gate.
    if (telemetry_on && opts.telemetry.periodCycles == 0)
        opts.telemetry.periodCycles = 1'000'000;
    // Opened before any config runs, so an unwritable path fails at
    // once instead of after the sweep.
    TelemetryStream telemetry_stream;
    if (auto it = flags.find("telemetry"); it != flags.end()) {
        const std::string path =
            it->second == "1" ? "espsim_telemetry.jsonl" : it->second;
        if (!telemetry_stream.openFile(path)) {
            logLine(LogLevel::Error,
                    "cannot open telemetry stream '%s'", path.c_str());
            return 1;
        }
        opts.telemetry.stream = &telemetry_stream;
    }

    printRunManifest();
    const auto wall_start = std::chrono::steady_clock::now();
    const ServeReport report = runServe(profile, configs, opts);
    const auto wall_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    if (telemetry_on && !telemetry_stream.close()) {
        logLine(LogLevel::Error, "telemetry stream: write failed");
        return 1;
    }
    // Always on stderr: the serve_1m RSS gate parses this line from
    // two separate process runs.
    logLine(LogLevel::Info, "# serve peak RSS %.1f MiB", peakRssMb());
    // Parsed by the serve_trace_overhead gate (tracing on vs off).
    logLine(LogLevel::Info, "# serve wall %lld ms",
            static_cast<long long>(wall_ms));
    if (opts.telemetry.any()) {
        logLine(LogLevel::Info, "# telemetry: %llu snapshots",
                static_cast<unsigned long long>(
                    report.telemetrySnapshots));
    }

    TextTable table("serve tail latency (cycles, '" + report.profile +
                    "')");
    table.header({"config", "cycles", "idle", "p50", "p95", "p99",
                  "p99.9", "max"});
    for (const ServeCell &cell : report.cells) {
        table.row({cell.config,
                   TextTable::num(static_cast<double>(cell.cycles), 0),
                   TextTable::num(static_cast<double>(cell.idleCycles),
                                  0),
                   TextTable::num(cell.total.p50, 0),
                   TextTable::num(cell.total.p95, 0),
                   TextTable::num(cell.total.p99, 0),
                   TextTable::num(cell.total.p999, 0),
                   TextTable::num(cell.total.max, 0)});
    }
    std::fputs(table.render().c_str(), stdout);

    ArtifactManifest manifest;
    manifest.source = "espsim serve";
    auto artifactPath = [&flags](const char *key,
                                 const char *def) -> std::string {
        auto it = flags.find(key);
        if (it == flags.end())
            return "";
        return it->second == "1" ? def : it->second;
    };
    if (const std::string path =
            artifactPath("json", "espsim_latency.json");
        !path.empty()) {
        if (!writeTextFile(path, renderLatencyArtifactJson(manifest,
                                                           report))) {
            logLine(LogLevel::Error, "cannot write '%s'",
                    path.c_str());
            return 1;
        }
        logLine(LogLevel::Info, "# wrote %s", path.c_str());
    }
    if (opts.spans.enabled) {
        const auto it = flags.find("trace-spans");
        const std::string path =
            it != flags.end() && it->second != "1" ? it->second
                                                   : "espsim_spans.json";
        if (!writeTextFile(path,
                           renderSpanArtifactJson(manifest, report))) {
            logLine(LogLevel::Error, "cannot write '%s'",
                    path.c_str());
            return 1;
        }
        logLine(LogLevel::Info, "# wrote %s", path.c_str());
    }
    return 0;
}

int
cmdGen(const std::map<std::string, std::string> &flags)
{
    const auto app_it = flags.find("app");
    const auto out_it = flags.find("out");
    if (app_it == flags.end() || out_it == flags.end())
        return usage();
    AppProfile profile = AppProfile::byName(app_it->second);
    if (auto it = flags.find("events"); it != flags.end())
        profile.numEvents = parseUnsignedOption(it->second, "events");
    const auto workload = SyntheticGenerator(profile).generate();
    if (!saveWorkload(out_it->second, *workload)) {
        logLine(LogLevel::Error, "write failed");
        return 1;
    }
    std::printf("wrote %zu events (%llu instructions) to %s\n",
                workload->numEvents(),
                static_cast<unsigned long long>(
                    workload->totalInstructions()),
                out_it->second.c_str());
    return 0;
}

/**
 * `espsim diff` parses argv itself: the shared parseFlags drops
 * positional arguments, and the two artifact paths are positional.
 */
int
cmdDiff(int argc, char **argv)
{
    DiffOptions opts;
    std::vector<std::string> paths;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            paths.push_back(arg);
            continue;
        }
        auto value = [&i, argc, argv]() -> std::string {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (arg == "--rel-tol") {
            opts.relTol = parseDoubleOption(value(), "rel-tol");
        } else if (arg == "--abs-tol") {
            opts.absTol = parseDoubleOption(value(), "abs-tol");
        } else if (arg == "--max-rows") {
            opts.maxRows = static_cast<std::size_t>(
                parseUnsignedOption(value(), "max-rows"));
        } else if (arg == "--ignore-config-hash") {
            opts.ignoreConfigHash = true;
        } else if (arg == "--log-level") {
            value(); // consumed by main()'s pre-scan
        } else {
            logLine(LogLevel::Error, "unknown flag '%s' for espsim diff",
                    arg.c_str());
            usage();
            return 2;
        }
    }
    if (paths.size() != 2)
        return usage();

    const DiffResult res =
        diffSuiteArtifactFiles(paths[0], paths[1], opts);
    const std::string report = renderDiffReport(res, opts);
    std::fputs(report.c_str(),
               res.exitCode() == 2 ? stderr : stdout);
    return res.exitCode();
}

int
cmdFuzz(const std::map<std::string, std::string> &flags)
{
    FuzzOptions opts;
    if (auto it = flags.find("runs"); it != flags.end())
        opts.runs = static_cast<std::size_t>(
            parseUnsignedOption(it->second, "runs"));
    if (auto it = flags.find("seed"); it != flags.end())
        opts.seed = parseUnsignedOption(it->second, "seed");
    opts.verbose = flags.count("verbose") != 0;
    printRunManifest();
    return runFuzz(opts);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    // --log-level applies to every subcommand, so resolve it before
    // dispatch; the per-command flag parsers see it as a no-op pair.
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--log-level") == 0) {
            LogLevel level;
            if (!parseLogLevel(argv[i + 1], level)) {
                logLine(LogLevel::Error,
                        "invalid value '%s' for --log-level "
                        "(expected error|warn|info|debug)",
                        argv[i + 1]);
                usage();
                return 2;
            }
            setLogLevel(level);
        }
    }
    const std::string cmd = argv[1];
    if (cmd == "--version" || cmd == "version") {
        std::printf("espsim %s (%s build)\n", versionString(),
                    buildTypeString());
        return 0;
    }
    if (cmd == "diff")
        return cmdDiff(argc, argv);
    const auto known = commandFlags().find(cmd);
    if (known == commandFlags().end()) {
        logLine(LogLevel::Error, "unknown command '%s'", cmd.c_str());
        usage();
        return 2;
    }
    const auto flags = parseFlags(argc, argv, 2);
    for (const auto &[key, value] : flags) {
        (void)value;
        if (key != "log-level" && known->second.count(key) == 0) {
            logLine(LogLevel::Error, "unknown flag '--%s' for espsim %s",
                    key.c_str(), cmd.c_str());
            usage();
            return 2;
        }
    }
    if (cmd == "list")
        return cmdList();
    if (cmd == "run")
        return cmdRun(flags);
    if (cmd == "suite")
        return cmdSuite(flags);
    if (cmd == "serve")
        return cmdServe(flags);
    if (cmd == "gen")
        return cmdGen(flags);
    if (cmd == "fuzz")
        return cmdFuzz(flags);
    return usage();
}
