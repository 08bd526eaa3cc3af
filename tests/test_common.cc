/**
 * @file
 * Unit tests for the common utilities: deterministic RNG, stats
 * registry, sample statistics/percentiles, and the table printer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "common/histogram.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"

using namespace espsim;

TEST(Types, BlockMath)
{
    EXPECT_EQ(blockBytes, 64u);
    EXPECT_EQ(blockAlign(0), 0u);
    EXPECT_EQ(blockAlign(63), 0u);
    EXPECT_EQ(blockAlign(64), 64u);
    EXPECT_EQ(blockAlign(0x12345), 0x12340u);
    EXPECT_EQ(blockNumber(128), 2u);
}

TEST(Types, OpClassification)
{
    EXPECT_TRUE(isBranch(OpType::BranchCond));
    EXPECT_TRUE(isBranch(OpType::Call));
    EXPECT_TRUE(isBranch(OpType::Return));
    EXPECT_TRUE(isBranch(OpType::BranchIndirect));
    EXPECT_TRUE(isBranch(OpType::BranchDirect));
    EXPECT_FALSE(isBranch(OpType::Load));
    EXPECT_TRUE(isMemory(OpType::Load));
    EXPECT_TRUE(isMemory(OpType::Store));
    EXPECT_FALSE(isMemory(OpType::IntAlu));
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, RealInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.real();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(11);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, BernoulliCutIsExactThreshold)
{
    // real() is x * 2^-53 for x = next() >> 11, so the cut T must be
    // the first x at which x * 2^-53 < p turns false.
    constexpr std::uint64_t top = std::uint64_t{1} << 53;
    const auto holds = [](std::uint64_t x, double p) {
        return static_cast<double>(x) * 0x1.0p-53 < p;
    };
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (const double p :
         {0.0, -0.0, -0.3, -1e-300, 1e-300, 4.9e-324, 0x1.0p-53,
          0x1.8p-53, 0.02, 0.2, 0.3, 0.45, 0.5, 0.55, 0.94,
          std::nextafter(1.0, 0.0), 1.0, 1.5, 1e300,
          std::numeric_limits<double>::infinity(), nan}) {
        SCOPED_TRACE(p);
        const std::uint64_t cut = bernoulliCut(p);
        ASSERT_LE(cut, top);
        if (cut > 0) {
            EXPECT_TRUE(holds(cut - 1, p));
        }
        if (cut < top) {
            EXPECT_FALSE(holds(cut, p));
        }
        EXPECT_EQ(holds(0, p), 0 < cut);
        EXPECT_EQ(holds(top - 1, p), top - 1 < cut);
    }
    EXPECT_EQ(bernoulliCut(0.0), 0u);
    EXPECT_EQ(bernoulliCut(-0.3), 0u);
    EXPECT_EQ(bernoulliCut(nan), 0u);
    EXPECT_EQ(bernoulliCut(1.0), top);
    EXPECT_EQ(bernoulliCut(1.5), top);
    EXPECT_EQ(bernoulliCut(0.5), top / 2);
}

TEST(Rng, TrialMatchesChanceDrawForDraw)
{
    for (const double p : {0.0, 0.02, 0.3, 0.5, 0.94, 1.0}) {
        Rng a(23);
        Rng b(23);
        const std::uint64_t cut = bernoulliCut(p);
        for (int i = 0; i < 20000; ++i)
            ASSERT_EQ(a.trial(cut), b.chance(p)) << p << " draw " << i;
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, NextIfDrawsOnlyWhenAsked)
{
    Rng a(29);
    Rng b(29);
    for (int i = 0; i < 1000; ++i) {
        const bool draw = (i % 3) != 0;
        const std::uint64_t v = a.nextIf(draw);
        if (draw) {
            ASSERT_EQ(v, b.next()) << "draw " << i;
        }
    }
    EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SkewedFavorsLowIndices)
{
    Rng rng(17);
    int low = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        low += rng.skewed(100) < 25;
    // u^2 mapping: P(idx < 25) = sqrt(0.25) = 0.5.
    EXPECT_NEAR(low / static_cast<double>(n), 0.5, 0.03);
}

TEST(Stats, AddAndGet)
{
    StatGroup g;
    EXPECT_EQ(g.get("missing"), 0.0);
    EXPECT_FALSE(g.has("missing"));
    g.add("x");
    g.add("x", 2.5);
    EXPECT_DOUBLE_EQ(g.get("x"), 3.5);
    g.set("x", 1.0);
    EXPECT_DOUBLE_EQ(g.get("x"), 1.0);
    EXPECT_TRUE(g.has("x"));
}

TEST(Stats, MergeSums)
{
    StatGroup a, b;
    a.add("x", 1);
    b.add("x", 2);
    b.add("y", 5);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 3.0);
    EXPECT_DOUBLE_EQ(a.get("y"), 5.0);
}

TEST(Stats, DumpContainsEntries)
{
    StatGroup g;
    g.set("alpha", 1);
    g.set("beta", 2);
    const std::string out = g.dump("p.");
    EXPECT_NE(out.find("p.alpha = 1"), std::string::npos);
    EXPECT_NE(out.find("p.beta = 2"), std::string::npos);
}

TEST(SampleStat, EmptyIsZero)
{
    SampleStat s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.max(), 0.0);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.percentile(95), 0.0);
}

TEST(SampleStat, PercentilesOnKnownData)
{
    SampleStat s;
    for (int i = 1; i <= 100; ++i)
        s.record(i);
    EXPECT_EQ(s.count(), 100u);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
    EXPECT_NEAR(s.percentile(50), 50.0, 1.0);
    EXPECT_NEAR(s.percentile(95), 95.0, 1.0);
    EXPECT_NEAR(s.percentile(0), 1.0, 0.5);
    EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
    EXPECT_NEAR(s.mean(), 50.5, 1e-9);
}

TEST(SampleStat, RecordAfterQueryStillSorted)
{
    SampleStat s;
    s.record(5);
    s.record(1);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    s.record(10);
    EXPECT_DOUBLE_EQ(s.max(), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
}

TEST(SampleStat, PercentileOfEmptyIsZero)
{
    const SampleStat s;
    EXPECT_EQ(s.percentile(95.0), 0.0);
    EXPECT_EQ(s.max(), 0.0);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(SampleStat, PercentileOfSingleElementIsThatElement)
{
    SampleStat s;
    s.record(42.0);
    EXPECT_EQ(s.percentile(0.0), 42.0);
    EXPECT_EQ(s.percentile(50.0), 42.0);
    EXPECT_EQ(s.percentile(95.0), 42.0);
    EXPECT_EQ(s.percentile(100.0), 42.0);
}

TEST(SampleStat, PercentileOfTwoElementsPicksByNearestRank)
{
    SampleStat s;
    s.record(10.0);
    s.record(20.0);
    EXPECT_EQ(s.percentile(0.0), 10.0);
    EXPECT_EQ(s.percentile(100.0), 20.0);
    EXPECT_EQ(s.percentile(95.0), 20.0);
    EXPECT_EQ(s.max(), 20.0);
    EXPECT_EQ(s.mean(), 15.0);
}

TEST(Means, HarmonicMean)
{
    EXPECT_DOUBLE_EQ(harmonicMean({1, 1, 1}), 1.0);
    EXPECT_NEAR(harmonicMean({1.0, 2.0}), 4.0 / 3.0, 1e-12);
    EXPECT_EQ(harmonicMean({}), 0.0);
}

TEST(Means, HarmonicLeqArithmetic)
{
    const std::vector<double> v{1.2, 3.4, 0.7, 9.1};
    EXPECT_LE(harmonicMean(v), arithmeticMean(v));
}

TEST(Means, HarmonicMeanSkipsNonPositiveValues)
{
    // A degraded sweep can feed zero/negative cells into an aggregate;
    // these must be excluded with a warn, never panic.
    EXPECT_DOUBLE_EQ(harmonicMean({0.0}), 0.0);
    EXPECT_DOUBLE_EQ(harmonicMean({-3.0}), 0.0);
    EXPECT_DOUBLE_EQ(harmonicMean({0.0, -1.0, 0.0}), 0.0);

    // Excluded values do not count toward the mean's denominator.
    EXPECT_DOUBLE_EQ(harmonicMean({2.0, 0.0}), 2.0);
    EXPECT_DOUBLE_EQ(harmonicMean({4.0, -1.0, 4.0}), 4.0);
    EXPECT_NEAR(harmonicMean({1.0, 2.0, 0.0}), 4.0 / 3.0, 1e-12);
}

TEST(Table, RendersAlignedRows)
{
    TextTable t("demo");
    t.header({"name", "v"});
    t.row({"a", "1.00"});
    t.row({"bb", "20.00"});
    const std::string out = t.render();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("20.00"), std::string::npos);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(TableDeathTest, MismatchedRowPanics)
{
    TextTable t("bad");
    t.header({"a", "b"});
    EXPECT_DEATH(t.row({"only-one"}), "row has");
}
