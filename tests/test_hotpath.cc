/**
 * @file
 * Tests of the data-oriented hot-path structures introduced by the
 * raw-speed engine pass: the FixedRing pipeline queues, the per-event
 * EventArena, the open-addressed AddrMap, the BlockRunSet, and the
 * end-to-end guarantees they must preserve — byte-identical suite
 * artifacts across repeated runs. The zero-allocation steady state is
 * checked in tests/test_zero_alloc.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/addr_map.hh"
#include "common/arena.hh"
#include "common/block_run_set.hh"
#include "common/ring_buffer.hh"
#include "report/artifact.hh"
#include "sim/simulator.hh"
#include "sim/stats_report.hh"
#include "workload/generator.hh"

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

} // namespace

// --------------------------------------------------------------------
// FixedRing (ROB / LSQ replacement)
// --------------------------------------------------------------------

TEST(FixedRing, CapacityRoundsUpToPowerOfTwo)
{
    FixedRing<int> ring(96);
    EXPECT_EQ(ring.capacity(), 128u);
    FixedRing<int> exact(16);
    EXPECT_EQ(exact.capacity(), 16u);
}

TEST(FixedRing, FifoOrderSurvivesManyWrapArounds)
{
    FixedRing<int> ring(4); // capacity 4; indices wrap every 4 pushes
    int next_in = 0, next_out = 0;
    // Keep occupancy at 3 while the head/tail counters cross the
    // wrap boundary hundreds of times.
    for (int i = 0; i < 1000; ++i) {
        ring.push_back(next_in++);
        if (ring.size() == 3) {
            EXPECT_EQ(ring.front(), next_out);
            ring.pop_front();
            ++next_out;
        }
    }
    EXPECT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring.front(), next_out);
}

TEST(FixedRing, AtIndexesFromFrontAcrossWrap)
{
    FixedRing<int> ring(4);
    // Move head near the wrap point, then fill.
    ring.push_back(0);
    ring.push_back(1);
    ring.pop_front();
    ring.pop_front();
    for (int v = 10; v < 14; ++v)
        ring.push_back(v); // physically wraps around the store
    ASSERT_EQ(ring.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(ring.at(i), 10 + static_cast<int>(i));
}

TEST(FixedRing, ClearEmptiesWithoutReallocating)
{
    FixedRing<int> ring(8);
    for (int i = 0; i < 5; ++i)
        ring.push_back(i);
    ring.clear();
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.capacity(), 8u);
    ring.push_back(42);
    EXPECT_EQ(ring.front(), 42);
}

// --------------------------------------------------------------------
// EventArena (per-event transient state)
// --------------------------------------------------------------------

TEST(EventArena, SpansStayValidUntilReset)
{
    EventArena arena(64); // force overflow chunks early
    std::vector<std::uint64_t *> spans;
    for (int s = 0; s < 8; ++s) {
        std::uint64_t *p = arena.allocate<std::uint64_t>(16);
        for (int i = 0; i < 16; ++i)
            p[i] = static_cast<std::uint64_t>(s * 100 + i);
        spans.push_back(p);
    }
    // Every earlier span must still hold its values even though later
    // allocations overflowed into new chunks.
    for (int s = 0; s < 8; ++s) {
        for (int i = 0; i < 16; ++i)
            EXPECT_EQ(spans[s][i], static_cast<std::uint64_t>(s * 100 + i));
    }
}

TEST(EventArena, CapacityStabilizesAfterWarmup)
{
    EventArena arena(64);
    const auto one_event = [&arena] {
        (void)arena.allocate<std::uint64_t>(50);
        (void)arena.allocate<std::uint32_t>(70);
        arena.reset();
    };
    one_event(); // warmup: grows and coalesces
    one_event(); // second pass may still right-size
    const std::size_t settled = arena.capacityBytes();
    for (int i = 0; i < 100; ++i)
        one_event();
    EXPECT_EQ(arena.capacityBytes(), settled)
        << "arena kept growing across identical events";
}

TEST(EventArena, CopyRoundTripsAndResetReclaims)
{
    EventArena arena;
    const std::uint32_t src[4] = {1, 2, 3, 4};
    const std::uint32_t *dup = arena.copy(src, 4);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(dup[i], src[i]);
    EXPECT_GT(arena.usedBytes(), 0u);
    arena.reset();
    EXPECT_EQ(arena.usedBytes(), 0u);
}

// --------------------------------------------------------------------
// AddrMap (inflight-prefetch table replacement)
// --------------------------------------------------------------------

TEST(AddrMap, InsertFindEraseAcrossCollisions)
{
    AddrMap<std::uint64_t> map(8);
    // Dense keys stress the backward-shift deletion path.
    for (Addr a = 0; a < 200; ++a)
        map.insertOrAssign(a * 64, a);
    EXPECT_EQ(map.size(), 200u);
    for (Addr a = 0; a < 200; a += 2)
        EXPECT_TRUE(map.erase(a * 64));
    EXPECT_EQ(map.size(), 100u);
    for (Addr a = 0; a < 200; ++a) {
        const std::uint64_t *v = map.find(a * 64);
        if (a % 2 == 0) {
            EXPECT_EQ(v, nullptr);
        } else {
            ASSERT_NE(v, nullptr);
            EXPECT_EQ(*v, a);
        }
    }
}

TEST(AddrMap, ClearRetainsCapacityAndReuses)
{
    AddrMap<int> map(8);
    for (Addr a = 0; a < 50; ++a)
        map.insertOrAssign(a << 6, 1);
    map.clear();
    EXPECT_TRUE(map.empty());
    map.insertOrAssign(0x1000, 7);
    ASSERT_NE(map.find(0x1000), nullptr);
    EXPECT_EQ(*map.find(0x1000), 7);
}

// --------------------------------------------------------------------
// BlockRunSet (speculative footprint sets)
// --------------------------------------------------------------------

TEST(BlockRunSet, InsertReportsNewVsSeenAndCoalescesRuns)
{
    BlockRunSet set;
    EXPECT_TRUE(set.insert(0x1000));  // new
    EXPECT_FALSE(set.insert(0x1000)); // already present
    EXPECT_TRUE(set.insert(0x1040));  // extends the run right
    EXPECT_TRUE(set.insert(0x0fc0));  // left-extends
    EXPECT_TRUE(set.insert(0x2000));  // separate run
    EXPECT_EQ(set.size(), 4u);
    EXPECT_EQ(set.runCount(), 2u);
    EXPECT_TRUE(set.contains(0x0fc0));
    EXPECT_TRUE(set.contains(0x1040));
    EXPECT_FALSE(set.contains(0x1080));
    set.clear();
    EXPECT_TRUE(set.empty());
    EXPECT_FALSE(set.contains(0x1000));
}

// --------------------------------------------------------------------
// End-to-end guarantees
// --------------------------------------------------------------------

TEST(HotPath, SuiteArtifactsAreByteIdenticalAcrossRuns)
{
    const std::vector<SimConfig> configs{SimConfig::baseline(),
                                         SimConfig::espFull(true)};
    ArtifactManifest manifest;
    manifest.source = "test_hotpath";
    manifest.toolVersion = "test";
    manifest.buildType = "test";

    const auto render = [&] {
        SuiteRunner runner({tinyProfile()});
        runner.setJobs(1);
        const auto rows = runner.run(configs);
        return renderSuiteArtifactJson(manifest, configs, rows);
    };
    const std::string first = render();
    const std::string second = render();
    EXPECT_EQ(first, second)
        << "suite artifact is not deterministic across identical runs";
}

TEST(HotPath, RepeatedSimulationsYieldIdenticalStats)
{
    const auto workload = SyntheticGenerator(tinyProfile()).generate();
    const SimResult a = Simulator(SimConfig::espFull(true)).run(*workload);
    const SimResult b = Simulator(SimConfig::espFull(true)).run(*workload);
    ASSERT_EQ(a.stats.values().size(), b.stats.values().size());
    for (const auto &[name, value] : a.stats.values())
        EXPECT_EQ(value, b.stats.get(name)) << "stat diverged: " << name;
}
