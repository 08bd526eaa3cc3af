/**
 * @file
 * Tests of the data-oriented hot-path structures introduced by the
 * raw-speed engine pass: the FixedRing pipeline queues, the per-event
 * EventArena, the open-addressed AddrMap, the BlockRunSet, and the
 * end-to-end guarantees they must preserve — byte-identical suite
 * artifacts across repeated runs. FixedRing, EventArena, AddrMap and
 * BlockRunSet also run in lockstep with a std-container twin (deque,
 * vector, unordered_map, set) on random operation streams, and every
 * outcome must agree. The zero-allocation steady state is checked in
 * tests/test_zero_alloc.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/addr_map.hh"
#include "common/arena.hh"
#include "common/block_run_set.hh"
#include "common/ring_buffer.hh"
#include "common/rng.hh"
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

/** Number of maximal runs of adjacent blocks in @p blocks. */
std::size_t
maximalRuns(const std::set<Addr> &blocks)
{
    std::size_t runs = 0;
    for (auto it = blocks.begin(); it != blocks.end(); ++it) {
        if (it == blocks.begin() || *std::prev(it) + blockBytes != *it)
            ++runs;
    }
    return runs;
}

/** One live arena span and a byte copy of what it must hold. */
struct ArenaSpan
{
    std::size_t align;
    const void *data;
    std::vector<std::uint8_t> want;

    /** Aligned for its type and still holding its twin's bytes. */
    bool
    intact() const
    {
        return reinterpret_cast<std::uintptr_t>(data) % align == 0 &&
            (want.empty() ||
             std::memcmp(data, want.data(), want.size()) == 0);
    }
};

/** Allocate (or copy) @p n random T from @p arena. */
template <typename T>
ArenaSpan
fillArenaSpan(EventArena &arena, Rng &rng, std::size_t n)
{
    std::vector<T> src(n);
    for (T &v : src)
        v = static_cast<T>(rng.next());
    T *p = nullptr;
    if (rng.chance(0.5)) {
        p = arena.copy(src.data(), n);
    } else {
        p = arena.allocate<T>(n);
        std::copy(src.begin(), src.end(), p);
    }
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(src.data());
    return {alignof(T), p, {bytes, bytes + n * sizeof(T)}};
}

/** @p n elements of uint8, uint32 or uint64 as @p width picks. */
ArenaSpan
randomArenaSpan(EventArena &arena, Rng &rng, std::uint64_t width,
                std::size_t n)
{
    switch (width) {
    case 0:
        return fillArenaSpan<std::uint8_t>(arena, rng, n);
    case 1:
        return fillArenaSpan<std::uint32_t>(arena, rng, n);
    default:
        return fillArenaSpan<std::uint64_t>(arena, rng, n);
    }
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

TEST(FixedRing, MatchesDequeOverThousandsOfWraps)
{
    // Random pushes and pops at every occupancy from empty to full;
    // each pop's value, the size and every at(i) must match a deque.
    for (const std::size_t requested : {1u, 4u, 6u, 16u}) {
        FixedRing<std::uint64_t> ring(requested);
        std::deque<std::uint64_t> ref;
        Rng rng(requested);
        std::uint64_t pushed = 0;
        for (int step = 0; step < 40000; ++step) {
            if (rng.chance(0.001)) {
                ring.clear();
                ref.clear();
            }
            const bool push = ref.empty() ||
                (ref.size() < ring.capacity() && rng.chance(0.5));
            if (push) {
                ring.push_back(pushed);
                ref.push_back(pushed);
                ++pushed;
            } else {
                ASSERT_EQ(ring.front(), ref.front()) << step;
                ring.pop_front();
                ref.pop_front();
            }
            ASSERT_EQ(ring.size(), ref.size()) << step;
            ASSERT_EQ(ring.empty(), ref.empty()) << step;
            for (std::size_t i = 0; i < ref.size(); ++i)
                ASSERT_EQ(ring.at(i), ref[i]) << step << "," << i;
        }
        EXPECT_GE(pushed / ring.capacity(), 1000u) << requested;
    }
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

TEST(EventArena, MatchesVectorTwinOnRandomEvents)
{
    // Random allocate/copy sequences over three element widths, from
    // a 16-byte first chunk so events overflow into chained chunks,
    // with reset() between events. After every step each live span
    // must be aligned for its type and still hold its twin's bytes
    // (so no two spans overlap), and usedBytes() <= peakBytes().
    const auto event = [](EventArena &arena, Rng &rng) {
        std::vector<ArenaSpan> live;
        const std::size_t allocs = 1 + rng.below(12);
        for (std::size_t a = 0; a < allocs; ++a) {
            live.push_back(
                randomArenaSpan(arena, rng, rng.below(3), rng.below(41)));
            for (const ArenaSpan &span : live)
                ASSERT_TRUE(span.intact()) << "allocation " << a;
            ASSERT_LE(arena.usedBytes(), arena.peakBytes());
        }
        arena.reset();
        ASSERT_EQ(arena.usedBytes(), 0u);
    };
    std::size_t overflows = 0;
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        EventArena arena(16);
        for (int e = 0; e < 40; ++e) {
            const std::size_t before = arena.capacityBytes();
            event(arena, rng);
            overflows += arena.capacityBytes() > before;
        }
        // One event shape, repeated: once warmed up, capacity settles.
        EventArena fresh(16);
        std::size_t settled = 0;
        for (int repeat = 0; repeat < 20; ++repeat) {
            Rng same(seed + 1000);
            event(fresh, same);
            if (repeat == 2) {
                settled = fresh.capacityBytes();
            } else if (repeat > 2) {
                EXPECT_EQ(fresh.capacityBytes(), settled);
            }
        }
    }
    EXPECT_GT(overflows, 0u);
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

TEST(AddrMap, MatchesUnorderedMapNearTheGrowthPoint)
{
    // The table grows when an insert would pass 70% load, so a pool of
    // 5 keys keeps 8 slots, 11 keeps 16 and 22 keeps 32: the table
    // runs close to full, probe chains wrap the array end, and
    // backward-shift deletes cross it. A pool of 40 also grows the
    // table mid-stream.
    for (const std::size_t pool : {5u, 11u, 22u, 40u}) {
        for (std::uint64_t seed = 1; seed <= 10; ++seed) {
            Rng rng(seed * 1000 + pool);
            std::vector<Addr> keys;
            while (keys.size() < pool) {
                const Addr key = rng.below(1u << 20) * blockBytes;
                if (std::find(keys.begin(), keys.end(), key) ==
                    keys.end())
                    keys.push_back(key);
            }
            AddrMap<std::uint64_t> map(8);
            std::unordered_map<Addr, std::uint64_t> ref;
            for (int step = 0; step < 3000; ++step) {
                const Addr key = keys[rng.below(pool)];
                const std::uint64_t op = rng.below(100);
                if (op < 55) {
                    const std::uint64_t value = rng.next();
                    ASSERT_EQ(map.insertOrAssign(key, value),
                              ref.insert_or_assign(key, value).second)
                        << step;
                } else if (op < 80) {
                    ASSERT_EQ(map.erase(key), ref.erase(key) == 1)
                        << step;
                } else if (op == 99) {
                    map.clear();
                    ref.clear();
                }
                ASSERT_EQ(map.size(), ref.size()) << step;
                for (const Addr k : keys) {
                    const std::uint64_t *v = map.find(k);
                    const auto it = ref.find(k);
                    ASSERT_EQ(v != nullptr, it != ref.end()) << step;
                    if (v != nullptr) {
                        ASSERT_EQ(*v, it->second) << step;
                    }
                }
            }
            std::size_t visited = 0;
            map.forEach([&](Addr k, std::uint64_t &v) {
                ++visited;
                ASSERT_EQ(ref.at(k), v);
            });
            EXPECT_EQ(visited, ref.size());
        }
    }
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

TEST(BlockRunSet, MatchesStdSetOnRandomStreams)
{
    // Blocks from a 48-block range: runs extend right, extend left and
    // merge from both sides long before the range fills, and clear()
    // restarts the stream. After every step the set must agree with a
    // std::set on membership across the range, size, and the number
    // of maximal runs.
    constexpr Addr base = 0x40000;
    constexpr Addr span = 48;
    std::size_t merges = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        BlockRunSet set;
        std::set<Addr> ref;
        for (int step = 0; step < 2000; ++step) {
            if (rng.chance(0.01)) {
                set.clear();
                ref.clear();
            }
            const Addr block = base + rng.below(span) * blockBytes;
            const std::size_t runs_before = set.runCount();
            ASSERT_EQ(set.insert(block), ref.insert(block).second)
                << seed << "," << step;
            merges += set.runCount() < runs_before;
            ASSERT_EQ(set.size(), ref.size()) << seed << "," << step;
            ASSERT_EQ(set.empty(), ref.empty());
            ASSERT_EQ(set.runCount(), maximalRuns(ref))
                << seed << "," << step;
            for (Addr b = base - blockBytes;
                 b <= base + span * blockBytes; b += blockBytes)
                ASSERT_EQ(set.contains(b), ref.count(b) != 0)
                    << seed << "," << step;
        }
    }
    EXPECT_GT(merges, 0u);
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
