/**
 * @file
 * Unit and property tests for the set-associative cache and the ESP
 * cachelets (way reservation / rotation / isolation).
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "cache/cache.hh"
#include "cache/cachelet.hh"
#include "common/rng.hh"

using namespace espsim;

namespace
{

bool
hit(SetAssocCache::Way way)
{
    return way != SetAssocCache::noWay;
}

} // namespace

TEST(Cache, HitAfterInsert)
{
    SetAssocCache c({"t", 1024, 2, 1});
    EXPECT_FALSE(hit(c.lookup(0x1000)));
    c.insert(0x1000);
    EXPECT_TRUE(hit(c.lookup(0x1000)));
    EXPECT_TRUE(c.contains(0x1040 - 1)); // same block
    EXPECT_FALSE(c.contains(0x1040));
    EXPECT_EQ(c.accesses(), 2u);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEvictionWithinSet)
{
    // 2 ways, 8 sets (1 KB): addresses with equal set index conflict.
    SetAssocCache c({"t", 1024, 2, 1});
    const Addr set_stride = 8 * blockBytes;
    const Addr a = 0, b = set_stride, d = 2 * set_stride;
    c.insert(a);
    c.insert(b);
    EXPECT_TRUE(hit(c.lookup(a))); // a is now MRU
    c.insert(d);              // evicts b (LRU)
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
    EXPECT_TRUE(c.contains(d));
}

TEST(Cache, InsertExistingRefreshesLru)
{
    SetAssocCache c({"t", 1024, 2, 1});
    const Addr set_stride = 8 * blockBytes;
    const Addr a = 0, b = set_stride, d = 2 * set_stride;
    c.insert(a);
    c.insert(b);
    c.insert(a); // refresh a
    c.insert(d); // evicts b
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
}

TEST(Cache, InsertReportsFillOrHit)
{
    SetAssocCache c({"t", 1024, 2, 1});
    const Addr set_stride = 8 * blockBytes;
    const Addr a = 0, b = set_stride, d = 2 * set_stride;
    const auto fa = c.insert(a);
    EXPECT_EQ(fa.way, c.find(a));
    EXPECT_FALSE(fa.displaced);
    EXPECT_EQ(c.insert(a + 1).way, SetAssocCache::noWay); // hit
    c.insert(b);
    const auto fd = c.insert(d); // evicts a (LRU)
    EXPECT_EQ(fd.way, fa.way);
    ASSERT_TRUE(fd.displaced);
    EXPECT_EQ(*fd.displaced, a);
    EXPECT_EQ(c.dirtyPopulation(), 0u);
    EXPECT_EQ(c.insert(b, true).way, SetAssocCache::noWay);
    EXPECT_EQ(c.dirtyPopulation(), 1u); // a hit can still dirty
}

TEST(Cache, InvalidateAllEmptiesPopulation)
{
    SetAssocCache c({"t", 4096, 4, 1});
    for (Addr a = 0; a < 4096; a += blockBytes)
        c.insert(a);
    EXPECT_EQ(c.population(), 64u);
    c.invalidateAll();
    EXPECT_EQ(c.population(), 0u);
    EXPECT_FALSE(c.contains(0));
}

TEST(Cache, PopulationNeverExceedsCapacity)
{
    SetAssocCache c({"t", 2048, 2, 1});
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        c.insert(rng.below(1 << 20) * blockBytes);
    EXPECT_LE(c.population(), c.geometry().numBlocks());
}

TEST(CacheDeathTest, BadGeometryFatals)
{
    EXPECT_DEATH(SetAssocCache({"t", 1000, 3, 1}), "not divisible");
    EXPECT_DEATH(SetAssocCache({"t", 1024, 0, 1}), "associativity");
}

/**
 * Property test: a fully-associative SetAssocCache (one set) must
 * behave exactly like a reference LRU list for any access sequence.
 */
TEST(CacheProperty, FullyAssociativeMatchesReferenceLru)
{
    const unsigned ways = 8;
    SetAssocCache c({"t", ways * blockBytes, ways, 1});
    std::vector<Addr> reference; // front = MRU

    Rng rng(99);
    for (int i = 0; i < 20000; ++i) {
        const Addr addr = rng.below(32) * blockBytes;
        // Reference model.
        bool ref_hit = false;
        for (std::size_t j = 0; j < reference.size(); ++j) {
            if (reference[j] == addr) {
                reference.erase(reference.begin() + j);
                ref_hit = true;
                break;
            }
        }
        reference.insert(reference.begin(), addr);
        if (reference.size() > ways)
            reference.pop_back();

        const bool c_hit = hit(c.lookup(addr));
        ASSERT_EQ(c_hit, ref_hit) << "iteration " << i;
        if (!c_hit)
            c.insert(addr);
    }
}

/** Geometry sweep: hits/misses are consistent for every shape. */
class CacheGeometrySweep
    : public ::testing::TestWithParam<std::pair<std::size_t, unsigned>>
{
};

TEST_P(CacheGeometrySweep, SequentialFillThenRescanHits)
{
    const auto [size, assoc] = GetParam();
    SetAssocCache c({"t", size, assoc, 1});
    const std::size_t blocks = size / blockBytes;
    // Fill exactly to capacity with one pass...
    for (std::size_t i = 0; i < blocks; ++i)
        c.insert(i * blockBytes);
    // ...every block must still be resident (no self-eviction).
    for (std::size_t i = 0; i < blocks; ++i)
        ASSERT_TRUE(c.contains(i * blockBytes)) << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheGeometrySweep,
    ::testing::Values(std::pair<std::size_t, unsigned>{1024, 2},
                      std::pair<std::size_t, unsigned>{2048, 4},
                      std::pair<std::size_t, unsigned>{32 * 1024, 2},
                      std::pair<std::size_t, unsigned>{6 * 1024, 12},
                      std::pair<std::size_t, unsigned>{64 * 1024, 16}));

// --- Cachelet ------------------------------------------------------

TEST(Cachelet, PartitionIsolation)
{
    Cachelet c({"cl", 6 * 1024, 12, 2});
    c.insertFor(EspDepth::Esp1, 0x1000);
    c.insertFor(EspDepth::Esp2, 0x2000);
    EXPECT_TRUE(c.lookupFor(EspDepth::Esp1, 0x1000));
    EXPECT_FALSE(c.lookupFor(EspDepth::Esp2, 0x1000));
    EXPECT_TRUE(c.lookupFor(EspDepth::Esp2, 0x2000));
    EXPECT_FALSE(c.lookupFor(EspDepth::Esp1, 0x2000));
}

TEST(Cachelet, Esp2OwnsExactlyOneWay)
{
    Cachelet c({"cl", 6 * 1024, 12, 2});
    // Insert many conflicting blocks for ESP-2: only one way per set,
    // so at most numSets blocks survive.
    const std::size_t sets = c.geometry().numSets();
    for (Addr i = 0; i < 64; ++i)
        c.insertFor(EspDepth::Esp2, i * blockBytes);
    std::size_t resident = 0;
    for (Addr i = 0; i < 64; ++i)
        resident += c.contains(i * blockBytes);
    EXPECT_LE(resident, sets);
}

TEST(Cachelet, RotationPromotesEsp2Blocks)
{
    Cachelet c({"cl", 6 * 1024, 12, 2});
    const unsigned before = c.reservedWay();
    c.insertFor(EspDepth::Esp2, 0x4000);
    c.rotateReservedWay();
    EXPECT_NE(c.reservedWay(), before);
    // The promoted block now belongs to the ESP-1 partition.
    EXPECT_TRUE(c.lookupFor(EspDepth::Esp1, 0x4000));
    // And the fresh ESP-2 way is clean.
    EXPECT_FALSE(c.lookupFor(EspDepth::Esp2, 0x4000));
}

TEST(Cachelet, RotationClearsNewReservedWay)
{
    Cachelet c({"cl", 6 * 1024, 12, 2});
    // Fill ESP-1 ways heavily.
    for (Addr i = 0; i < 256; ++i)
        c.insertFor(EspDepth::Esp1, i * blockBytes);
    c.rotateReservedWay();
    // New ESP-2 partition must not see stale ESP-1 blocks.
    std::size_t hits = 0;
    for (Addr i = 0; i < 256; ++i)
        hits += c.lookupFor(EspDepth::Esp2, i * blockBytes);
    EXPECT_EQ(hits, 0u);
}

TEST(Cachelet, DoubleRotationRoundTrips)
{
    Cachelet c({"cl", 6 * 1024, 12, 2});
    const unsigned w0 = c.reservedWay();
    c.rotateReservedWay();
    c.rotateReservedWay();
    EXPECT_EQ(c.reservedWay(), w0);
}

TEST(Cachelet, InvalidateForDepth)
{
    Cachelet c({"cl", 6 * 1024, 12, 2});
    c.insertFor(EspDepth::Esp1, 0x1000);
    c.insertFor(EspDepth::Esp2, 0x2000);
    c.invalidateFor(EspDepth::Esp1);
    EXPECT_FALSE(c.lookupFor(EspDepth::Esp1, 0x1000));
    EXPECT_TRUE(c.lookupFor(EspDepth::Esp2, 0x2000));
}

TEST(CacheletDeathTest, NeedsTwoWays)
{
    EXPECT_DEATH(Cachelet({"cl", 64, 1, 1}), "at least 2 ways");
}
