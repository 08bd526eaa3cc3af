/**
 * @file
 * Mutation tests of check/artifact_check: one valid artifact of each
 * kind, rendered in process, passes clean, and each hand corruption
 * below, one per invariant, is reported.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <regex>
#include <string>
#include <vector>

#include "check/artifact_check.hh"
#include "report/artifact.hh"
#include "report/telemetry.hh"
#include "server/serve.hh"
#include "traced_run.hh"
#include "workload/generator.hh"

using namespace espsim;

namespace
{

enum class Kind { Suite, SuiteErrors, Table, Latency, Span, Timeline, Stream };

/** One valid artifact of each kind, rendered once per process. */
const std::map<Kind, std::string> &
artifacts()
{
    static const std::map<Kind, std::string> texts = [] {
        std::map<Kind, std::string> t;
        ArtifactManifest manifest;
        manifest.source = "test_artifact_check";
        manifest.toolVersion = "test";
        manifest.buildType = "test";
        AppProfile app = AppProfile::byName("amazon");
        app.name = "amazon-tiny";
        app.numEvents = 6;
        app.avgEventLen = 2000;
        const auto workload = SyntheticGenerator(app).generate();
        const std::vector<SimConfig> configs = {SimConfig::baseline(),
                                                SimConfig::espFull(true)};

        SuiteRow row{app.name, {}, {}};
        for (const SimConfig &config : configs)
            row.results.push_back(Simulator(config).run(*workload));
        t[Kind::Suite] = renderSuiteArtifactJson(manifest, configs, {row});
        row.errors = {{}, {"injected", configsHash({configs[1]})}};
        t[Kind::SuiteErrors] =
            renderSuiteArtifactJson(manifest, configs, {row});

        TextTable table("Figure T");
        table.header({"structure", "bytes"});
        table.row({"I-List", "64"});
        table.row({"D-List", "128"});
        t[Kind::Table] = renderTableArtifactJson(manifest, table);

        ServeOptions opts;
        opts.events = 120;
        opts.spans.enabled = true;
        opts.spans.worstK = 4;
        const ServeReport report =
            runServe(ServerProfile::testProfile(), configs, opts);
        t[Kind::Latency] = renderLatencyArtifactJson(manifest, report);
        t[Kind::Span] = renderSpanArtifactJson(manifest, report);

        // A sampler adds the timeline's counter tracks; two runs into
        // one stream make two blocks.
        TelemetryStream stream;
        std::string lines;
        stream.captureTo(&lines);
        LiveTelemetry live;
        live.periodCycles = 3000;
        live.stream = &stream;
        RunInstrumentation inst;
        inst.telemetry = &live;
        EventTimeline timeline;
        t[Kind::Timeline] =
            runTraced(Simulator(configs[1]), *workload, timeline, inst).trace;
        Simulator(configs[0]).run(*workload, inst);
        t[Kind::Stream] = lines;
        return t;
    }();
    return texts;
}

/**
 * A hand corruption of one valid artifact: the first match of
 * @p pattern is replaced by @p by, and a problem must contain @p want.
 */
struct Mutation
{
    Kind kind;
    const char *want;
    const char *pattern;
    const char *by;
};

constexpr Kind S = Kind::Suite, E = Kind::SuiteErrors, T = Kind::Table,
               L = Kind::Latency, P = Kind::Span, X = Kind::Timeline,
               R = Kind::Stream;

/**
 * One corruption per check of the retired Python validator, in its
 * order; CHANGES.md maps each to the C++ check that reports it.
 */
const Mutation mutations[] = {
    // Every JSON artifact: schema tag, version and manifest.
    {S, "unknown schema", "espsim-suite-artifact", "nope"},
    {S, "format_version is not 1", R"("format_version":1)", R"("v":1)"},
    {S, "manifest is not an object", R"("manifest":)", R"("m":)"},
    {S, "manifest.source is not", R"("source":"[^"]*")", R"("source":"")"},
    {S, "manifest.config_hash is not", "[0-9a-f]{16}", "0123456789ABCDEF"},
    // Suite artifact.
    {S, "manifest.apps is not", R"("apps":\[[^\]]*\])", R"("apps":[])"},
    {S, "manifest.configs is not", R"("configs":)", R"("c":)"},
    {S, "results is not a list", R"("results":)", R"("r":)"},
    {E, "errors is not a list", R"("errors":)", R"("errors":7,"e":)"},
    {S, "results + errors length != apps x configs", R"("results":\[)",
     R"("results":[],"r":[)"},
    {S, "manifest.points != apps x configs", R"("points":2)", R"("points":3)"},
    {S, "results + errors length", R"("results":\[)", R"("results":[{},)"},
    {E, "errors[0] is not an object", R"("errors":\[)", R"("errors":[5,)"},
    {E, "errors[0].app not listed", R"x(("errors":\[\{"app":)"[^"]*")x",
     R"($1"bing")"},
    {E, "errors[0].config not listed",
     R"x(("errors":\[\{"app":"[^"]*","config":)"[^"]*")x", R"($1"NL")"},
    {E, "errors[0].message is not", R"("message":"[^"]*")", R"("message":"")"},
    {E, "errors[0].config_hash is not",
     R"x(("errors".*"config_hash":)"[^"]*")x", R"($1"123")"},
    {S, "results[0] is not an object", R"("results":\[)", R"("results":[[],)"},
    {S, "results[0].app not listed", R"x(("results":\[\{"app":)"[^"]*")x",
     R"($1"bing")"},
    {S, "results[0].config not listed",
     R"x(("results":\[\{"app":"[^"]*","config":)"[^"]*")x", R"($1"NL")"},
    {S, "results[0].stats is not", R"("stats":\{[^}]*\})", R"("stats":{})"},
    {S, "stats.core.cycles is not a number or null", R"("core.cycles":)",
     R"("core.cycles":"7","x":)"},
    {S, "derived.ipc is not present", R"("derived.ipc":)", R"("d":)"},
    // Table artifact.
    {T, "title is not", R"("title":"[^"]*")", R"("title":"")"},
    {T, "header is not", R"("header":\[[^\]]*\])", R"("header":[])"},
    {T, "rows is not", R"("rows":)", R"("r":)"},
    {T, "rows[1] width != header width", R"(\["D-List","128"\])", R"(["x"])"},
    // Latency summaries.
    {L, "latency.queue is not an object", R"("queue":)", R"("queue":[],"q":)"},
    {L, "latency.queue.count is not", R"("count":\d+)", R"("count":-1)"},
    {L, "latency.queue.p99 is not", R"("p99":)", R"("p99":"9","x":)"},
    {L, "latency.queue.p95 > results[0].latency.queue.p99", R"("p95":[0-9.]+)",
     R"("p95":1e12)"},
    // Latency artifact.
    {L, "manifest.profile is not", R"("profile":)", R"("p":)"},
    {L, "manifest.window is not", R"("window":\d+)", R"("window":1.5)"},
    {L, "manifest.configs is not", R"("configs":)", R"("c":)"},
    {L, "manifest.arrival is not", R"("arrival":)", R"("arrival":1,"a":)"},
    {L, "manifest.arrival.mean_gap_cycles is not", R"("mean_gap_cycles":)",
     R"("mean_gap_cycles":-1,"g":)"},
    {L, "results is not a non-empty list", R"("results":)", R"("r":)"},
    {L, "results length != manifest.configs length", R"("configs":\[)",
     R"("configs":["NL",)"},
    {L, "results[0] is not an object", R"("results":\[)", R"("results":[0,)"},
    {L, "results[0].config not listed",
     R"x(("results":\[\{"config":)"[^"]*")x", R"($1"NL")"},
    {L, "results[0].idle_cycles is not", R"("idle_cycles":)",
     R"("idle_cycles":-5,"i":)"},
    {L, "results[0].ipc is not", R"("ipc":)", R"("ipc":-0.5,"i":)"},
    {L, "results[0].latency is not", R"("latency":)", R"("l":)"},
    {L, "results[0].handlers is not", R"("handlers":)",
     R"("handlers":{},"h":)"},
    {L, "handlers[0] is not an object", R"("handlers":\[)",
     R"("handlers":[null,)"},
    {L, "handlers[0].handler is not", R"("handler":\d+)", R"("handler":-1)"},
    {L, "handlers events sum != results[0].events",
     R"(("handler":\d+,"events":)\d+)", R"($1 99999)"},
    {L, "results[0].histogram is not", R"("histogram":)", R"("h":)"},
    {L, "histogram.scale is not pow2_cycles", "pow2_cycles", "linear"},
    {L, "histogram.buckets not all non-negative", R"("buckets":\[)",
     R"("buckets":[-1,)"},
    {L, "histogram buckets sum != latency.total.count", R"("buckets":\[)",
     R"("buckets":[5,)"},
    // Span rows.
    {P, "worst[0] is not an object", R"("worst":\[)", R"("worst":[1,)"},
    {P, "worst[0].dispatch is not", R"("dispatch":)", R"("d":)"},
    {P, "queue_cycles + service_cycles != total_cycles",
     R"("queue_cycles":\d+)", R"("queue_cycles":1e9)"},
    {P, "buckets is not the full cycle-bucket set", R"("idle":)", R"("i":)"},
    {P, "buckets sum != span_cycles", R"("drain":\d+)", R"("drain":1e9)"},
    {P, "worst[0].esp is not", R"("esp":)", R"("e":)"},
    {P, "esp.pre_exec_cycles is not", R"("pre_exec_cycles":)",
     R"("pre_exec_cycles":"0","p":)"},
    {P, "esp.pre_exec_cycles != buckets.esp_pre_exec",
     R"("pre_exec_cycles":\d+)", R"("pre_exec_cycles":1e9)"},
    {P, "esp.prefetch is not the full prefetch-source set", R"("other":)",
     R"("o":)"},
    {P, "esp.prefetch.other is not an object", R"("other":\{[^}]*\})",
     R"("other":0)"},
    {P, "esp.prefetch.other.late is not", R"(("other":\{[^}]*"late":)\d+)",
     R"($1 -1)"},
    // Span artifact.
    {P, "manifest.profile is not", R"("profile":)", R"("p":)"},
    {P, "manifest.worst_k is not", R"("worst_k":\d+)", R"("worst_k":-1)"},
    {P, "manifest.configs is not", R"("configs":\[[^\]]*\])",
     R"("configs":[])"},
    {P, "results is not", R"("results":)", R"("r":)"},
    {P, "results length != manifest.configs length", R"("configs":\[)",
     R"("configs":["NL",)"},
    {P, "results[0] is not an object", R"("results":\[)", R"("results":[0,)"},
    {P, "results[0].config not listed",
     R"x(("results":\[\{"config":)"[^"]*")x", R"($1"NL")"},
    {P, "results[0].cycles is not", R"("cycles":\d+)", R"("cycles":-1)"},
    {P, "results[0].spans_recorded != events", R"("spans_recorded":\d+)",
     R"("spans_recorded":1e9)"},
    {P, "results[0].worst is not", R"("worst":)", R"("worst":{},"w":)"},
    {P, "worst length != min(worst_k, spans_recorded)", R"("worst_k":\d+)",
     R"("worst_k":3)"},
    {P, "worst event", R"(("event":(\d+),.*?"event":)\d+)", "$1$2"},
    {P, "worst not sorted by total_cycles descending",
     R"(("total_cycles":\d+.*?"total_cycles":)\d+)", R"($1 1e9)"},
    // Telemetry block headers.
    {R, "line 1: schema is not", "espsim-telemetry-stream", "other"},
    {R, "line 1: format_version is not 1", R"("format_version":1)",
     R"("format_version":3)"},
    {R, "line 1: workload is not", R"("workload":"[^"]*")",
     R"("workload":"")"},
    {R, "line 1: config_hash is not", "[0-9a-f]{16}", "123"},
    {R, "line 1: period_cycles is not", R"("period_cycles":\d+)",
     R"("period_cycles":-1)"},
    {R, "line 1: names are not all non-empty strings", R"("names":\[)",
     R"("names":["",)"},
    {R, "line 1: names are not sorted", R"("names":\[)", R"("names":["zz",)"},
    // Telemetry snapshots.
    {R, "line 2: not an object", "\n\\{[^\n]*", "\n[1]"},
    {R, "block 1 not closed", R"("final":true)", R"("final":false)"},
    {R, "line 1: snapshot before a valid block header", R"("schema":)",
     R"("s":)"},
    {R, "snapshot after the final snapshot of block 2", "$", R"({"seq":9})"},
    {R, "line 2: seq is not 1", R"("seq":1,)", R"("seq":5,)"},
    {R, "line 2: cycle is not", R"("cycle":\d+)", R"("cycle":-1)"},
    {R, "line 3: cycle decreased", R"("cycle":\d+)", R"("cycle":1e15)"},
    {R, "line 2: values not numeric", R"("values":\[)", R"("values":["x",)"},
    {R, "line 3: bp.branches decreased", R"("values":\[\d+)",
     R"("values":[1e15)"},
    {R, "line 2: final is not a boolean", R"("seq":1,)",
     R"("seq":1,"final":1,)"},
    {R, "block 2 not closed by a final snapshot", "\n[^\n]*\n$", "\n"},
    // Chrome timelines.
    {X, "traceEvents is not", R"("traceEvents":)", R"("traceEvents":[],"t":)"},
    {X, "otherData.tool is not espsim", R"("tool":"espsim")", R"("tool":"c")"},
    {X, "otherData.timeline_format_version is not 1",
     R"("timeline_format_version":1)", R"("timeline_format_version":2)"},
    {X, "traceEvents[0] is not an object", R"("traceEvents":\[)",
     R"("traceEvents":[3,)"},
    {X, "args is not", R"x(("ph":"C"[^{]*)"args":)x", R"($1"a":)"},
    {X, "args.x is not a number", R"(("ph":"C"[^{]*"args":\{))",
     R"($1"x":"1",)"},
    {X, "pid is not present", R"x(("ph":"C"[^{]*)"pid":)x", R"($1"p":)"},
    {X, "ph is not X|C|M", R"("ph":"X")", R"("ph":"B")"},
    {X, "dur is not present", R"("dur":)", R"("d":)"},
    {X, "ts is negative", R"(("ph":"X","ts":)\d+)", R"($1 -1)"},
    // Unreadable text.
    {S, "at offset", "\\}$", ""},
    {T, "top-level value is not an object", R"(^[\s\S]*$)", "[$&]"},
    {R, "line 2: unexpected end of input", R"(\n)", "\n\n"},
    {R, "line 2: expected string", R"(\n)", "\n{\n"},
};

} // namespace

TEST(ArtifactCheck, ValidArtifactsPassClean)
{
    for (const auto &[kind, text] : artifacts()) {
        EXPECT_EQ(checkArtifact(text, kind == Kind::Stream), Problems{})
            << text.substr(0, 200);
    }
}

TEST(ArtifactCheck, AStreamWithoutBlocksIsReported)
{
    EXPECT_EQ(checkArtifact("", true), Problems{"no block header found"});
    EXPECT_EQ(checkArtifact("{\"seq\":1}\n", true).back(),
              "no block header found");
}

TEST(ArtifactCheck, EveryCorruptionIsReported)
{
    for (const Mutation &m : mutations) {
        const std::string text = std::regex_replace(
            artifacts().at(m.kind), std::regex(m.pattern), m.by,
            std::regex_constants::format_first_only);
        ASSERT_NE(text, artifacts().at(m.kind)) << m.pattern;
        const Problems problems = checkArtifact(text, m.kind == R);
        EXPECT_TRUE(std::any_of(problems.begin(), problems.end(),
                                [&](const std::string &p) {
                                    return p.find(m.want) != p.npos;
                                }))
            << "wanted \"" << m.want << "\"; got "
            << (problems.empty() ? "no problem" : problems.front());
    }
}
