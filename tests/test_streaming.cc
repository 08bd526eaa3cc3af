/**
 * @file
 * Tests for the streaming workload core: EventSource equivalence with
 * a fully-materialised trace, bounded residency, free-list recycling,
 * reference stability over the simulator's access pattern and
 * stat-identical simulation. The amortised-O(1) allocation guarantee
 * is checked in tests/test_zero_alloc.cc.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "workload/streaming.hh"

using namespace espsim;

namespace
{

AppProfile
smallProfile()
{
    AppProfile p = AppProfile::testProfile();
    p.numEvents = 40;
    return p;
}

StreamingWorkload
makeStreaming(std::size_t window = 8)
{
    return StreamingWorkload(
        std::make_unique<GeneratorSource>(smallProfile()), window);
}

} // namespace

TEST(Streaming, MatchesMaterializedTrace)
{
    const AppProfile p = smallProfile();
    StreamingWorkload streamed(std::make_unique<GeneratorSource>(p));
    const auto eager = SyntheticGenerator(p).generate();
    ASSERT_EQ(streamed.numEvents(), eager->numEvents());
    EXPECT_EQ(streamed.name(), eager->name());
    for (std::size_t i = 0; i < streamed.numEvents(); ++i) {
        const EventTrace &a = streamed.event(i);
        const EventTrace &b = eager->event(i);
        ASSERT_EQ(a.size(), b.size()) << i;
        ASSERT_EQ(a.handlerPc, b.handlerPc) << i;
        for (std::size_t k = 0; k < a.size(); ++k) {
            ASSERT_EQ(a.ops[k].pc, b.ops[k].pc);
            ASSERT_EQ(a.ops[k].memAddr, b.ops[k].memAddr);
        }
    }
    EXPECT_EQ(streamed.warmSet().size(), eager->warmSet().size());
}

TEST(Streaming, ResidencyStaysBoundedOverFullPass)
{
    StreamingWorkload w = makeStreaming(4);
    for (std::size_t i = 0; i < w.numEvents(); ++i) {
        (void)w.event(i);
        if (i + 2 < w.numEvents()) {
            (void)w.event(i + 1); // the ESP lookahead pattern
            (void)w.event(i + 2);
        }
        // The window plus the one lookahead entry admitted beyond it.
        EXPECT_LE(w.residentTraces(), 5u) << "at event " << i;
    }
}

TEST(Streaming, SequentialPassRecyclesRetiredTraces)
{
    StreamingWorkload w = makeStreaming(4);
    for (std::size_t i = 0; i < w.numEvents(); ++i)
        (void)w.event(i);
    // Every event was generated exactly once...
    EXPECT_EQ(w.generations(), w.numEvents());
    // ...and once the window filled, retired traces fed generation.
    EXPECT_GT(w.recycled(), 0u);
    EXPECT_LT(w.recycled(), w.generations());
}

TEST(Streaming, LookaheadReferenceSurvivesContractWindow)
{
    StreamingWorkload w = makeStreaming(6);
    const EventTrace &current = w.event(5);
    const Addr pc = current.ops[0].pc;
    const std::size_t len = current.size();
    (void)w.event(6);
    (void)w.event(7);
    (void)w.event(8); // the contract's idx + 3
    EXPECT_EQ(current.ops[0].pc, pc);
    EXPECT_EQ(current.size(), len);
}

TEST(Streaming, RandomRevisitRegeneratesIdentically)
{
    StreamingWorkload w = makeStreaming(4);
    const std::size_t probe = 2;
    const std::size_t len_first = w.event(probe).size();
    // March far enough ahead that the probe event is evicted...
    for (std::size_t i = 0; i < w.numEvents(); ++i)
        (void)w.event(i);
    EXPECT_GT(w.generations(), w.numEvents() - 1);
    // ...then revisit: deterministic regeneration.
    EXPECT_EQ(w.event(probe).size(), len_first);
}

TEST(Streaming, SimulatesIdenticallyToMaterialized)
{
    // The golden gate's matrix (amazon and bing at base and ESP+NL)
    // plus the test profile, each at the contract's minimum window and
    // the default one. Every stat must match, not just the headline.
    const std::vector<SimConfig> configs{SimConfig::baseline(),
                                         SimConfig::espFull(true)};
    for (const AppProfile &p :
         {AppProfile::byName("amazon"), AppProfile::byName("bing"),
          smallProfile()}) {
        const auto eager = SyntheticGenerator(p).generate();
        for (const SimConfig &config : configs) {
            const SimResult ref = Simulator(config).run(*eager);
            for (const std::size_t window : {4, 8}) {
                StreamingWorkload streamed(
                    std::make_unique<GeneratorSource>(p), window);
                const SimResult got = Simulator(config).run(streamed);
                const std::string where = p.name + " " + config.name +
                    " window " + std::to_string(window) + ": ";
                ASSERT_EQ(got.stats.values().size(),
                          ref.stats.values().size())
                    << where;
                for (const auto &[name, value] : ref.stats.values()) {
                    ASSERT_TRUE(got.stats.has(name)) << where << name;
                    const double v = got.stats.get(name);
                    EXPECT_TRUE(v == value ||
                                (std::isnan(v) && std::isnan(value)))
                        << where << name << " " << v << " vs " << value;
                }
            }
        }
    }
}

TEST(StreamingDeathTest, OutOfRangePanics)
{
    StreamingWorkload w = makeStreaming();
    EXPECT_DEATH((void)w.event(999), "out of range");
}
