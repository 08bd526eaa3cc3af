/**
 * @file
 * Tests of telemetry, the one counter time series: exact
 * final-snapshot closure against the end-of-run registry,
 * monotone/contiguous JSONL streams, counters that start at zero,
 * event and snapshot counts that agree with the stream, streams
 * byte-identical under concurrent runs, and artifacts byte-identical
 * with telemetry on vs off.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "check/artifact_check.hh"
#include "report/json_reader.hh"
#include "report/telemetry.hh"
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

/** Run @p workload under ESP+NL with a live sampler paced every
 *  @p period cycles whose stream is captured into @p captured. */
SimResult
runWithTelemetry(const Workload &workload, Cycle period,
                 std::string *captured, LiveTelemetry *live = nullptr)
{
    LiveTelemetry local;
    if (live == nullptr)
        live = &local;
    live->periodCycles = period;
    TelemetryStream stream;
    stream.captureTo(captured);
    live->stream = &stream;
    RunInstrumentation inst;
    inst.telemetry = live;
    const SimResult result =
        Simulator(SimConfig::espFull(true)).run(workload, inst);
    live->stream = nullptr;
    return result;
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

} // namespace

// --------------------------------------------------------------------
// Stream closure and monotonicity
// --------------------------------------------------------------------

TEST(Telemetry, FinalSnapshotEqualsRegistryExactly)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    const Cycle period = 5'000;
    std::string captured;
    const SimResult result =
        runWithTelemetry(*workload, period, &captured);

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
    const Cycle period = 2'000;
    std::string captured;
    (void)runWithTelemetry(*workload, period, &captured);

    // header + >=1 periodic + final, and the stream contract holds:
    // contiguous seq, monotone counters, one final line, the last.
    ASSERT_GE(splitLines(captured).size(), 3u);
    EXPECT_EQ(checkArtifact(captured, true), Problems{});
}

TEST(Telemetry, HeaderCarriesRunIdentityAndSortedNames)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    const Cycle period = 5'000;
    std::string captured;
    (void)runWithTelemetry(*workload, period, &captured);

    const auto header = parseJson(splitLines(captured).front());
    ASSERT_TRUE(header);
    EXPECT_EQ(header->at("format_version").number, 1.0);
    EXPECT_FALSE(header->at("config").string.empty());
    EXPECT_EQ(header->at("workload").string, "amazon-tiny");
    EXPECT_EQ(header->at("period_cycles").number, 5'000.0);
    EXPECT_EQ(checkArtifact(captured, true), Problems{}); // sorted names
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

TEST(Telemetry, ProgressAndSnapshotCountsMatchTheStream)
{
    // One run: the final snapshot counts every retired event, and the
    // snapshot count is the stream's lines minus its one header.
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    const Cycle period = 5'000;
    std::string captured;
    LiveTelemetry live;
    const SimResult result =
        runWithTelemetry(*workload, period, &captured, &live);
    const std::vector<std::string> run_lines = splitLines(captured);
    const auto final_line = parseJson(run_lines.back());
    ASSERT_TRUE(final_line);
    EXPECT_EQ(final_line->at("events").number,
              static_cast<double>(result.core.events));
    EXPECT_EQ(result.core.events, workload->numEvents());
    EXPECT_EQ(live.snapshots, run_lines.size() - 1);

    // A serve sweep shares one record across configs: the reported
    // snapshot count is the file's lines minus one header per config.
    ServeOptions opts;
    opts.events = 200;
    opts.arrival.meanGapCycles = 2000.0;
    opts.telemetry.periodCycles = 3'000;
    std::string serve_captured;
    TelemetryStream serve_stream;
    serve_stream.captureTo(&serve_captured);
    opts.telemetry.stream = &serve_stream;
    const std::vector<SimConfig> configs = {SimConfig::baseline(),
                                            SimConfig::espFull(true)};
    const ServeReport report =
        runServe(ServerProfile::testProfile(), configs, opts);
    std::size_t headers = 0;
    const std::vector<std::string> lines = splitLines(serve_captured);
    for (const std::string &line : lines)
        headers += parseJson(line)->find("schema") != nullptr;
    EXPECT_EQ(headers, configs.size());
    EXPECT_GT(report.telemetrySnapshots, configs.size());
    EXPECT_EQ(report.telemetrySnapshots, lines.size() - headers);
}

TEST(Telemetry, CountersAreZeroWhenTheSamplerStartsForEveryConfig)
{
    // plot_intervals.py measures the first interval from zero. A run with no events keeps the warmup
    // and engine construction that precede the sampler and adds no
    // work after it; counters are monotone, so a final line of zeros
    // means every counter was zero when the sampler started.
    const auto app = SyntheticGenerator(tinyProfile()).generate();
    InMemoryWorkload empty(app->name(), {});
    empty.setWarmSet(app->warmSet());
    ASSERT_FALSE(empty.warmSet().empty());
    for (const auto &[name, make] : namedConfigs()) {
        std::string captured;
        LiveTelemetry live;
        TelemetryStream stream;
        stream.captureTo(&captured);
        live.stream = &stream;
        RunInstrumentation inst;
        inst.telemetry = &live;
        (void)Simulator(make()).run(empty, inst);
        const std::vector<std::string> lines = splitLines(captured);
        ASSERT_EQ(lines.size(), 2u) << name;
        const auto header = parseJson(lines.front());
        const auto last = parseJson(lines.back());
        ASSERT_TRUE(header && last) << name;
        const JsonValue &names = header->at("names");
        const JsonValue &values = last->at("values");
        ASSERT_EQ(values.array.size(), names.array.size()) << name;
        for (std::size_t i = 0; i < values.array.size(); ++i) {
            EXPECT_EQ(values.array[i].number, 0.0)
                << name << ": " << names.array[i].string;
        }
    }
}

// --------------------------------------------------------------------
// Determinism and artifact byte-identity
// --------------------------------------------------------------------

TEST(Telemetry, StreamBytesIdenticalUnderConcurrentRuns)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    const Cycle period = 7'000;

    // Serial reference stream (the "--jobs 1" world).
    std::string solo;
    (void)runWithTelemetry(*workload, period, &solo);
    ASSERT_GT(splitLines(solo).size(), 2u);

    // Four concurrent samplers over the same immutable workload (the
    // "--jobs 4" world): every captured stream must be byte-identical
    // to the serial one.
    std::vector<std::string> captured(4);
    std::vector<std::thread> threads;
    for (std::string &out : captured) {
        threads.emplace_back([&workload, period, &out] {
            (void)runWithTelemetry(*workload, period, &out);
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const std::string &stream : captured)
        EXPECT_EQ(stream, solo);
}

TEST(Telemetry, LatencyArtifactBytesIdenticalOnAndOff)
{
    ServeOptions off;
    off.events = 200;
    off.arrival.meanGapCycles = 2000.0;
    ServeOptions on = off;
    on.telemetry.periodCycles = 3'000;

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
}
