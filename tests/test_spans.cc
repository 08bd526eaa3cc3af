/**
 * @file
 * Tests for request-flow span tracing: the SpanCollector worst-K table
 * (ordering, bound, and a sorted-copy twin over tied latencies), the
 * span closure invariant against a real simulated run (Σ span buckets
 * == retire - startCycle, consecutive spans tile the run), determinism
 * of the span artifact under concurrent replays and the per-handler
 * latency breakdown. The zero-steady-state-allocation contract is
 * checked in tests/test_zero_alloc.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/job_pool.hh"
#include "cpu/ooo_core.hh"
#include "report/spans.hh"
#include "server/latency.hh"
#include "server/profile.hh"
#include "server/serve.hh"
#include "sim/simulator.hh"
#include "workload/streaming.hh"

using namespace espsim;

namespace
{

/** A synthetic span with the given latency, arriving back to back. */
RequestSpan
makeSpan(std::uint64_t index, Cycle total)
{
    RequestSpan span;
    span.index = index;
    span.handlerType = static_cast<std::uint32_t>(index % 3);
    span.startCycle = index * 1000;
    span.arrival = index * 1000;
    span.dispatch = index * 1000;
    span.retire = index * 1000 + total;
    span.instructions = total / 2;
    span.buckets[static_cast<std::size_t>(CycleBucket::Retiring)] =
        total;
    return span;
}

/** A sink that keeps every span, in retire order. */
class VectorSink final : public SpanSink
{
  public:
    void onSpan(const RequestSpan &span) override
    {
        spans.push_back(span);
    }
    std::vector<RequestSpan> spans;
};

} // namespace

// --------------------------------------------------------------------
// SpanCollector: the worst-K table
// --------------------------------------------------------------------

TEST(SpanCollector, WorstSpansAreSortedAndBounded)
{
    SpanCollector collector(4);
    // Latencies 100, 200, ..., 1200 in shuffled-ish order.
    const Cycle totals[] = {300, 1200, 100, 700, 500, 1100,
                            200, 900,  400, 600, 800, 1000};
    std::uint64_t index = 0;
    for (const Cycle t : totals)
        collector.onSpan(makeSpan(index++, t));

    const std::vector<RequestSpan> worst = collector.worstSpans();
    ASSERT_EQ(worst.size(), 4u);
    EXPECT_EQ(worst[0].totalCycles(), 1200u);
    EXPECT_EQ(worst[1].totalCycles(), 1100u);
    EXPECT_EQ(worst[2].totalCycles(), 1000u);
    EXPECT_EQ(worst[3].totalCycles(), 900u);

    // Twin: a seeded stream with many tied totals against a stable
    // sort of every span by total, descending. Stability keeps the
    // older request first on a tie; the first K rows are the table.
    std::mt19937_64 rng(20150613);
    std::vector<RequestSpan> stream;
    for (std::uint64_t i = 0; i < 3000; ++i)
        stream.push_back(makeSpan(i, 100 * (1 + rng() % 24)));
    std::vector<RequestSpan> reference = stream;
    std::stable_sort(reference.begin(), reference.end(),
                     [](const RequestSpan &a, const RequestSpan &b) {
                         return a.totalCycles() > b.totalCycles();
                     });
    for (const std::size_t k : {std::size_t{1}, std::size_t{7},
                                std::size_t{64}, std::size_t{5000}}) {
        SpanCollector twin(k);
        for (const RequestSpan &span : stream)
            twin.onSpan(span);
        const std::vector<RequestSpan> got = twin.worstSpans();
        ASSERT_EQ(got.size(), std::min(k, stream.size())) << "k=" << k;
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].index, reference[i].index)
                << "k=" << k << " row " << i;
            EXPECT_EQ(got[i].totalCycles(), reference[i].totalCycles())
                << "k=" << k << " row " << i;
        }
        EXPECT_EQ(twin.spansRecorded(), stream.size());
    }
}

// --------------------------------------------------------------------
// Span capture against a real run
// --------------------------------------------------------------------

TEST(SpanCapture, SpansTileTheRunAndBucketsClose)
{
    ServerProfile p = ServerProfile::testProfile();
    p.app.numEvents = 120;
    StreamingWorkload workload(
        std::make_unique<ServerTraceSource>(p));
    ArrivalConfig acfg;
    acfg.meanGapCycles = 3000.0;
    ServePacer pacer(makeArrivalProcess(acfg), 1024, acfg.seed,
                     p.app.numHandlerTypes);

    VectorSink sink;

    RunInstrumentation inst;
    inst.pacer = &pacer;
    inst.spans = &sink;
    const SimResult r =
        Simulator(SimConfig::espFull(true)).run(workload, inst);

    ASSERT_EQ(sink.spans.size(), p.app.numEvents);

    Cycle prev_retire = 0;
    Cycle span_cycle_sum = 0;
    for (const RequestSpan &span : sink.spans) {
        // Spans tile the run: each window opens where the previous
        // one closed (the first opens at cycle 0).
        EXPECT_EQ(span.startCycle, prev_retire);
        prev_retire = span.retire;
        // Closure: the captured bucket deltas account for every
        // cycle of the span window, exactly.
        EXPECT_EQ(span.bucketSum(), span.spanCycles());
        EXPECT_EQ(span.queueCycles() + span.serviceCycles(),
                  span.totalCycles());
        EXPECT_GE(span.retire, span.dispatch);
        span_cycle_sum += span.spanCycles();
    }
    // The tiled spans cover the whole run up to the last retirement.
    EXPECT_EQ(span_cycle_sum, prev_retire);
    EXPECT_LE(prev_retire, r.cycles);
    // ESP ran, so some span must carry pre-exec blame.
    Cycle pre_exec = 0;
    for (const RequestSpan &span : sink.spans)
        pre_exec += span.espPreExecCycles();
    EXPECT_EQ(pre_exec,
              r.core.bucketCycles[static_cast<std::size_t>(
                  CycleBucket::EspPreExec)]);
}

TEST(SpanCapture, SpanArtifactIsDeterministicAcrossConcurrency)
{
    const ServerProfile profile = ServerProfile::testProfile();
    const std::vector<SimConfig> configs{SimConfig::baseline()};
    ServeOptions opts;
    opts.events = 400;
    opts.arrival.meanGapCycles = 2000.0;
    opts.spans.enabled = true;

    ArtifactManifest manifest;
    manifest.source = "test";
    manifest.toolVersion = "test";
    manifest.buildType = "test";

    const std::string serial = renderSpanArtifactJson(
        manifest, runServe(profile, configs, opts));

    // Four concurrent replays of the identical run must each render
    // byte-for-byte the same artifact as the serial one.
    std::vector<std::string> parallel(4);
    {
        JobPool pool(4);
        for (std::string &out : parallel) {
            pool.submit([&] {
                out = renderSpanArtifactJson(
                    manifest, runServe(profile, configs, opts));
            });
        }
        pool.wait();
    }
    for (const std::string &artifact : parallel)
        EXPECT_EQ(artifact, serial);
    EXPECT_NE(serial.find("\"schema\":\"espsim-span-artifact\""),
              std::string::npos);
}

// --------------------------------------------------------------------
// Per-handler latency breakdown
// --------------------------------------------------------------------

TEST(HandlerBreakdown, RowsPartitionTheEventStream)
{
    ServeOptions opts;
    opts.events = 300;
    opts.arrival.meanGapCycles = 2000.0;
    const ServeReport report = runServe(
        ServerProfile::testProfile(), {SimConfig::baseline()}, opts);
    ASSERT_EQ(report.cells.size(), 1u);
    const ServeCell &cell = report.cells[0];

    ASSERT_FALSE(cell.handlers.empty());
    std::uint64_t handler_events = 0;
    for (const HandlerLatencyRow &row : cell.handlers) {
        EXPECT_GT(row.events, 0u);
        EXPECT_EQ(row.queue.count, row.events);
        EXPECT_EQ(row.service.count, row.events);
        EXPECT_LE(row.queue.p50, row.queue.p99);
        EXPECT_LE(row.service.p50, row.service.p99);
        handler_events += row.events;
    }
    EXPECT_EQ(handler_events, cell.events);
}
