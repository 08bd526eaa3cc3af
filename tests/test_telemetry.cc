/**
 * @file
 * Tests of the live telemetry plane: exact final-snapshot closure
 * against the end-of-run registry, monotone/contiguous JSONL streams,
 * byte-identical artifacts with telemetry on vs off, the stall
 * watchdog's fire-exactly-once contract under an injected stall, and
 * the /metrics HTTP surface (routing unit tests plus a real loopback
 * socket round trip).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "report/json_reader.hh"
#include "report/metrics_http.hh"
#include "report/telemetry.hh"
#include "report/watchdog.hh"
#include "server/profile.hh"
#include "server/serve.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"

using namespace espsim;

namespace
{

/** Tiny app so telemetry tests run in milliseconds. */
AppProfile
tinyProfile()
{
    AppProfile p = AppProfile::byName("amazon");
    p.name = "amazon-tiny";
    p.numEvents = 8;
    p.avgEventLen = 3000;
    return p;
}

SimResult
runWithTelemetry(const Workload &workload, SamplePeriod cfg,
                 std::string *captured,
                 TelemetryPlane *plane = nullptr)
{
    RunInstrumentation inst;
    inst.telemetry = cfg;
    TelemetryStream stream;
    if (captured != nullptr) {
        stream.captureTo(captured);
        inst.telemetryStream = &stream;
    }
    inst.telemetryPlane = plane;
    return Simulator(SimConfig::espFull(true)).run(workload, inst);
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        const std::size_t end = text.find('\n', start);
        if (end == std::string::npos) {
            lines.push_back(text.substr(start));
            break;
        }
        lines.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    return lines;
}

/** Scoped environment variable (restores by unsetting on exit). */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~EnvGuard() { ::unsetenv(name_); }

  private:
    const char *name_;
};

/** Minimal HTTP/1.0 GET against 127.0.0.1:@p port. */
std::string
httpGet(std::uint16_t port, const std::string &target)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return {};
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return {};
    }
    const std::string request =
        "GET " + target + " HTTP/1.0\r\n\r\n";
    (void)::send(fd, request.data(), request.size(), 0);
    std::string response;
    char buf[1024];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        response.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return response;
}

} // namespace

// --------------------------------------------------------------------
// Stream closure and monotonicity
// --------------------------------------------------------------------

TEST(Telemetry, FinalSnapshotEqualsRegistryExactly)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    SamplePeriod cfg;
    cfg.cycles = 5'000;
    std::string captured;
    const SimResult result =
        runWithTelemetry(*workload, cfg, &captured);

    const std::vector<std::string> lines = splitLines(captured);
    ASSERT_GE(lines.size(), 2u); // header + at least the final line

    const auto header = parseJson(lines.front());
    ASSERT_TRUE(header);
    EXPECT_EQ(header->at("schema").string, "espsim-telemetry-stream");
    const JsonValue &names = header->at("names");
    ASSERT_TRUE(names.isArray());
    ASSERT_FALSE(names.array.empty());

    const auto last = parseJson(lines.back());
    ASSERT_TRUE(last);
    const JsonValue *final_flag = last->find("final");
    ASSERT_TRUE(final_flag != nullptr);
    EXPECT_TRUE(final_flag->boolean);
    const JsonValue &values = last->at("values");
    ASSERT_EQ(values.array.size(), names.array.size());

    // Exact, not approximate: the closing snapshot reads the same
    // uint64-backed getters the registry snapshot does.
    for (std::size_t i = 0; i < names.array.size(); ++i) {
        const std::string &name = names.array[i].string;
        ASSERT_TRUE(result.stats.has(name)) << name;
        EXPECT_EQ(values.array[i].number, result.stats.get(name))
            << name;
    }
    EXPECT_EQ(last->at("events").number,
              static_cast<double>(workload->numEvents()));
}

TEST(Telemetry, StreamIsMonotoneWithContiguousSeq)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    SamplePeriod cfg;
    cfg.cycles = 2'000;
    std::string captured;
    (void)runWithTelemetry(*workload, cfg, &captured);

    const std::vector<std::string> lines = splitLines(captured);
    ASSERT_GE(lines.size(), 3u); // header + >=1 periodic + final
    std::uint64_t prev_seq = 0;
    double prev_cycle = -1.0;
    double prev_events = -1.0;
    std::vector<double> prev_values;
    std::size_t finals = 0;
    for (std::size_t i = 1; i < lines.size(); ++i) {
        const auto snap = parseJson(lines[i]);
        ASSERT_TRUE(snap) << lines[i];
        EXPECT_EQ(static_cast<std::uint64_t>(snap->at("seq").number),
                  prev_seq + 1);
        ++prev_seq;
        EXPECT_GE(snap->at("cycle").number, prev_cycle);
        prev_cycle = snap->at("cycle").number;
        EXPECT_GE(snap->at("events").number, prev_events);
        prev_events = snap->at("events").number;
        const JsonValue &values = snap->at("values");
        if (!prev_values.empty()) {
            ASSERT_EQ(values.array.size(), prev_values.size());
            for (std::size_t j = 0; j < prev_values.size(); ++j)
                EXPECT_GE(values.array[j].number, prev_values[j]);
        }
        prev_values.clear();
        for (const JsonValue &v : values.array)
            prev_values.push_back(v.number);
        finals += snap->find("final") != nullptr;
    }
    // Exactly one final line, and it is the last one.
    EXPECT_EQ(finals, 1u);
    EXPECT_TRUE(parseJson(lines.back())->find("final") != nullptr);
}

TEST(Telemetry, HeaderCarriesRunIdentityAndSortedNames)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    SamplePeriod cfg;
    cfg.cycles = 5'000;
    std::string captured;
    (void)runWithTelemetry(*workload, cfg, &captured);

    const auto header = parseJson(splitLines(captured).front());
    ASSERT_TRUE(header);
    EXPECT_EQ(header->at("format_version").number, 1.0);
    EXPECT_FALSE(header->at("config").string.empty());
    EXPECT_EQ(header->at("workload").string, "amazon-tiny");
    EXPECT_EQ(header->at("period_cycles").number, 5'000.0);
    const JsonValue &names = header->at("names");
    for (std::size_t i = 1; i < names.array.size(); ++i)
        EXPECT_LT(names.array[i - 1].string, names.array[i].string);
}

TEST(Telemetry, FinalizeAloneStillClosesTheBlock)
{
    // No pacing at all, stream attached: the block must still be
    // header + exactly one final snapshot.
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    std::string captured;
    (void)runWithTelemetry(*workload, {}, &captured);
    const std::vector<std::string> lines = splitLines(captured);
    ASSERT_EQ(lines.size(), 2u);
    const auto last = parseJson(lines.back());
    ASSERT_TRUE(last);
    EXPECT_TRUE(last->find("final") != nullptr);
    EXPECT_EQ(last->at("seq").number, 1.0);
}

TEST(Telemetry, PlanePublishesFinalSnapshotAndProgress)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    TelemetryPlane plane;
    EXPECT_FALSE(plane.latest().valid);
    SamplePeriod cfg;
    cfg.cycles = 5'000;
    (void)runWithTelemetry(*workload, cfg, nullptr, &plane);

    const TelemetryPlane::View view = plane.latest();
    ASSERT_TRUE(view.valid);
    EXPECT_TRUE(view.snap.isFinal);
    EXPECT_EQ(view.workload, "amazon-tiny");
    ASSERT_TRUE(view.names);
    EXPECT_EQ(view.names->size(), view.snap.values.size());
    // Every retired event noted progress for the watchdog.
    EXPECT_GE(plane.progress(), workload->numEvents());
    EXPECT_FALSE(plane.degraded());
}

// --------------------------------------------------------------------
// Artifact byte-identity
// --------------------------------------------------------------------

TEST(Telemetry, LatencyArtifactBytesIdenticalOnAndOff)
{
    ServeOptions off;
    off.events = 200;
    off.arrival.meanGapCycles = 2000.0;
    ServeOptions on = off;
    on.telemetry.period.cycles = 3'000;

    ArtifactManifest manifest;
    manifest.source = "test";
    manifest.toolVersion = "test";
    manifest.buildType = "test";
    const std::vector<SimConfig> configs = {SimConfig::baseline(),
                                            SimConfig::espFull(true)};
    const std::string with_telemetry = renderLatencyArtifactJson(
        manifest,
        runServe(ServerProfile::testProfile(), configs, on));
    const std::string without_telemetry = renderLatencyArtifactJson(
        manifest,
        runServe(ServerProfile::testProfile(), configs, off));
    EXPECT_EQ(with_telemetry, without_telemetry);
    // A healthy run never carries the opt-in health block.
    EXPECT_EQ(with_telemetry.find("\"health\""), std::string::npos);
}

// --------------------------------------------------------------------
// Stall watchdog
// --------------------------------------------------------------------

TEST(Watchdog, FiresExactlyOnceWithoutProgress)
{
    TelemetryPlane plane;
    int dumps = 0;
    StallReport seen{};
    {
        StallWatchdog watchdog(plane, 40.0,
                               [&](const StallReport &report) {
                                   ++dumps;
                                   seen = report;
                               });
        // No progress at all: one fire, then the watchdog stays
        // quiet no matter how long the stall continues.
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        EXPECT_EQ(watchdog.fireCount(), 1u);
        watchdog.stop();
    }
    EXPECT_EQ(dumps, 1);
    EXPECT_GE(seen.stalledMs, 40.0);
    EXPECT_TRUE(plane.degraded());
    EXPECT_NE(plane.degradedReason().find("stall watchdog"),
              std::string::npos);
}

TEST(Watchdog, StaysQuietWhileProgressFlows)
{
    TelemetryPlane plane;
    StallWatchdog watchdog(plane, 150.0,
                           [](const StallReport &) {});
    for (int i = 0; i < 10; ++i) {
        plane.noteProgress();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    watchdog.stop();
    EXPECT_EQ(watchdog.fireCount(), 0u);
    EXPECT_FALSE(plane.degraded());
}

TEST(Watchdog, InjectedStallDegradesServeEndToEnd)
{
    // The ESPSIM_STALL_INJECT hook wedges the retire path at event 50
    // for 400 ms against a 100 ms budget: the watchdog must fire
    // exactly once and the sweep must come back degraded.
    EnvGuard env("ESPSIM_STALL_INJECT", "50:400");
    ServeOptions opts;
    opts.events = 120;
    opts.arrival.meanGapCycles = 2000.0;
    opts.telemetry.period.cycles = 5'000;
    opts.telemetry.watchdogBudgetMs = 100.0;
    const ServeReport report = runServe(
        ServerProfile::testProfile(), {SimConfig::baseline()}, opts);

    EXPECT_EQ(report.watchdogFires, 1u);
    EXPECT_TRUE(report.degraded);
    EXPECT_NE(report.degradedReason.find("stall watchdog"),
              std::string::npos);
    EXPECT_GT(report.telemetrySnapshots, 0u);

    // The degraded state surfaces in the artifact's opt-in health
    // block (and only then — see LatencyArtifactBytesIdenticalOnAndOff
    // for the healthy case).
    ArtifactManifest manifest;
    manifest.source = "test";
    manifest.toolVersion = "test";
    manifest.buildType = "test";
    const std::string json =
        renderLatencyArtifactJson(manifest, report);
    EXPECT_NE(json.find("\"health\""), std::string::npos);
    EXPECT_NE(json.find("\"status\":\"degraded\""), std::string::npos);
    EXPECT_NE(json.find("\"watchdog_fires\":1"), std::string::npos);
}

// --------------------------------------------------------------------
// Metrics HTTP surface
// --------------------------------------------------------------------

TEST(MetricsHttp, RoutesAndHealthTransitions)
{
    TelemetryPlane plane;
    // Before any publish: healthy, but no snapshot to serve.
    EXPECT_NE(metricsHttpResponse(plane, "/healthz").find("200"),
              std::string::npos);
    EXPECT_NE(metricsHttpResponse(plane, "/healthz")
                  .find("\"status\":\"ok\""),
              std::string::npos);
    EXPECT_NE(metricsHttpResponse(plane, "/snapshot.json").find("503"),
              std::string::npos);
    EXPECT_NE(metricsHttpResponse(plane, "/metrics")
                  .find("espsim_health_degraded 0"),
              std::string::npos);
    EXPECT_NE(metricsHttpResponse(plane, "/nope").find("404"),
              std::string::npos);

    TelemetryRunInfo info;
    info.config = "Base";
    info.workload = "testsrv";
    info.configHash = "00112233aabbccdd";
    auto names = std::make_shared<std::vector<std::string>>(
        std::vector<std::string>{"core.cycles", "core.events"});
    TelemetrySnapshot snap;
    snap.seq = 3;
    snap.cycle = 1234;
    snap.events = 7;
    snap.values = {1234.0, 7.0};
    plane.publish(info, names, snap);

    const std::string body =
        metricsHttpResponse(plane, "/snapshot.json");
    EXPECT_NE(body.find("200"), std::string::npos);
    EXPECT_NE(body.find("00112233aabbccdd"), std::string::npos);
    EXPECT_NE(body.find("\"seq\":3"), std::string::npos);

    plane.markDegraded("stall watchdog: test");
    EXPECT_NE(metricsHttpResponse(plane, "/healthz").find("503"),
              std::string::npos);
    EXPECT_NE(metricsHttpResponse(plane, "/healthz").find("degraded"),
              std::string::npos);
    EXPECT_NE(metricsHttpResponse(plane, "/metrics")
                  .find("espsim_health_degraded 1"),
              std::string::npos);
}

TEST(MetricsHttp, ServesOverLoopbackSocket)
{
    TelemetryPlane plane;
    MetricsHttpServer server(plane);
    ASSERT_TRUE(server.start(0)); // ephemeral port
    ASSERT_GT(server.port(), 0);

    const std::string health = httpGet(server.port(), "/healthz");
    EXPECT_NE(health.find("200 OK"), std::string::npos);
    EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
    const std::string metrics = httpGet(server.port(), "/metrics");
    EXPECT_NE(metrics.find("espsim_health_degraded 0"),
              std::string::npos);
    EXPECT_GE(server.requestsServed(), 2u);
    server.stop();
    EXPECT_FALSE(server.running());
}

// --------------------------------------------------------------------
// Prometheus exposition
// --------------------------------------------------------------------

TEST(Prometheus, RendersLabelledCountersWithIntegralValues)
{
    TelemetryPlane plane;
    TelemetryRunInfo info;
    info.config = "Base";
    info.workload = "amazon";
    auto names = std::make_shared<std::vector<std::string>>(
        std::vector<std::string>{"core.cycles", "mem.l1d_misses"});
    TelemetrySnapshot snap;
    snap.seq = 2;
    snap.cycle = 9001;
    snap.events = 41;
    snap.values = {9001.0, 17.0};
    plane.publish(info, names, snap);

    const std::string text =
        renderPrometheusText(plane.latest(), plane.degraded());
    EXPECT_NE(text.find("# TYPE espsim_core_cycles counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("espsim_core_cycles{config=\"Base\","
                        "workload=\"amazon\"} 9001\n"),
              std::string::npos);
    EXPECT_NE(text.find("espsim_mem_l1d_misses{config=\"Base\","
                        "workload=\"amazon\"} 17\n"),
              std::string::npos);
    EXPECT_NE(text.find("espsim_snapshot_seq{config=\"Base\","
                        "workload=\"amazon\"} 2\n"),
              std::string::npos);

    // Before any publish only the health gauge exists.
    TelemetryPlane empty;
    const std::string bare =
        renderPrometheusText(empty.latest(), empty.degraded());
    EXPECT_EQ(bare, "# TYPE espsim_health_degraded gauge\n"
                    "espsim_health_degraded 0\n");
}
