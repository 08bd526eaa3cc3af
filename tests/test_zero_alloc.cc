/**
 * @file
 * The zero-allocation invariants. This file builds into its own test
 * executable, linked with common/alloc_counter.cc, whose replacement
 * global operator new counts every heap allocation of the process:
 * the steady-state simulation loop, the streaming workload window and
 * the span collector must stay off the heap.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>

#include "common/alloc_counter.hh"
#include "report/spans.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"
#include "workload/streaming.hh"

using namespace espsim;

namespace
{

/** Tiny app so end-to-end checks run in milliseconds. */
AppProfile
tinyProfile()
{
    AppProfile p = AppProfile::byName("amazon");
    p.name = "amazon-tiny";
    p.numEvents = 6;
    p.avgEventLen = 3000;
    return p;
}

/**
 * Allocations of the second and third of three identical runs. Warm
 * one run so every pool/arena/ring reaches its settled capacity; the
 * later runs then allocate only their per-run setup (machine
 * construction), so any steady-state leak into the hot loop shows up
 * as run-to-run drift.
 */
template <typename Run>
std::pair<std::uint64_t, std::uint64_t>
warmedRunAllocations(Run run)
{
    run();
    const std::uint64_t before_second = allocCount();
    run();
    const std::uint64_t second = allocCount() - before_second;
    const std::uint64_t before_third = allocCount();
    run();
    return {second, allocCount() - before_third};
}

/** A synthetic span with the given latency, arriving back to back. */
RequestSpan
makeSpan(std::uint64_t index, Cycle total)
{
    RequestSpan span;
    span.index = index;
    span.startCycle = index * 1000;
    span.arrival = index * 1000;
    span.dispatch = index * 1000;
    span.retire = index * 1000 + total;
    span.buckets[static_cast<std::size_t>(CycleBucket::Retiring)] =
        total;
    return span;
}

} // namespace

TEST(HotPath, SteadyStateLoopAllocatesNothing)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    const SimConfig config = SimConfig::espFull(true);
    const auto [second, third] = warmedRunAllocations(
        [&] { (void)Simulator(config).run(*workload); });
    EXPECT_EQ(second, third)
        << "allocation count drifts between identical warmed runs";
}

TEST(HotPath, SpanSinkLoopAllocatesNothing)
{
    // The drift check with a span collector on the sink list, plus
    // the sink's own cost: attaching the collector must add the same
    // allocations to a run however many events retire.
    const SimConfig config = SimConfig::espFull(true);
    const auto sink_cost = [&config](std::size_t events) {
        AppProfile p = tinyProfile();
        p.numEvents = events;
        const auto workload = SyntheticGenerator(p).generate();
        SpanCollector collector(8);
        RunInstrumentation inst;
        inst.spans = &collector;
        const auto [second, third] = warmedRunAllocations(
            [&] { (void)Simulator(config).run(*workload, inst); });
        EXPECT_EQ(second, third)
            << "allocation count drifts between identical warmed runs";
        const std::uint64_t before = allocCount();
        (void)Simulator(config).run(*workload);
        return third - (allocCount() - before);
    };
    EXPECT_EQ(sink_cost(6), sink_cost(12))
        << "the span sink path allocates per event";
}

TEST(Streaming, SteadyStateReRequestDoesNotAllocate)
{
    AppProfile p = AppProfile::testProfile();
    p.numEvents = 40;
    StreamingWorkload w(std::make_unique<GeneratorSource>(p), 8);
    for (std::size_t i = 0; i <= 30; ++i)
        (void)w.event(i);
    // Cache hits inside the resident window are pure lookups.
    const std::uint64_t before = allocCount();
    (void)w.event(28);
    (void)w.event(29);
    (void)w.event(30);
    EXPECT_EQ(allocCount(), before);
}

TEST(Streaming, AllocationsPerEventStayFlat)
{
    AppProfile p = AppProfile::testProfile();
    p.numEvents = 240;
    StreamingWorkload w(std::make_unique<GeneratorSource>(p), 8);
    // Warm past the first window so the free list is populated.
    for (std::size_t i = 0; i < 40; ++i)
        (void)w.event(i);
    const std::uint64_t c0 = allocCount();
    for (std::size_t i = 40; i < 140; ++i)
        (void)w.event(i);
    const std::uint64_t first = allocCount() - c0;
    const std::uint64_t c1 = allocCount();
    for (std::size_t i = 140; i < 240; ++i)
        (void)w.event(i);
    const std::uint64_t second = allocCount() - c1;
    // Amortised O(1)/event: a later window of 100 events must not
    // allocate meaningfully more than an earlier one (no growth with
    // stream position). Slack covers variance in trace sizes.
    EXPECT_LE(second, first * 2 + 64);
}

TEST(SpanCollector, SteadyStateRecordsWithoutAllocating)
{
    SpanCollector collector(8);

    // Fill the table, then measure a long steady stream whose rising
    // latencies keep replacing worst-K entries.
    for (std::uint64_t i = 0; i < 32; ++i)
        collector.onSpan(makeSpan(i, 500));
    const std::uint64_t before = allocCount();
    for (std::uint64_t i = 0; i < 10'000; ++i)
        collector.onSpan(makeSpan(32 + i, 400 + i % 300));
    collector.onSpan(makeSpan(20'000, 1'000'000)); // replaces the front
    EXPECT_EQ(allocCount(), before);
}
