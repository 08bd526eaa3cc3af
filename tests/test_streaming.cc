/**
 * @file
 * Tests for the streaming workload core: EventSource equivalence with
 * a fully-materialised trace, bounded residency and free-list
 * recycling. The amortised-O(1) allocation guarantee is checked in
 * tests/test_zero_alloc.cc.
 */

#include <gtest/gtest.h>

#include <memory>

#include "sim/simulator.hh"
#include "workload/lazy.hh"
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
        // One reader: window-many pins plus the freshly-admitted
        // lookahead entries.
        EXPECT_LE(w.residentTraces(), 8u) << "at event " << i;
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

TEST(Streaming, LazyWorkloadIsAThinAdapter)
{
    const AppProfile p = smallProfile();
    LazyWorkload lazy(p, 6);
    StreamingWorkload streamed(std::make_unique<GeneratorSource>(p), 6);
    // The adapter must be the streaming core, not a parallel
    // implementation: same type, same behaviour.
    static_assert(std::is_base_of_v<StreamingWorkload, LazyWorkload>);
    ASSERT_EQ(lazy.numEvents(), streamed.numEvents());
    for (std::size_t i = 0; i < lazy.numEvents(); ++i)
        ASSERT_EQ(lazy.event(i).size(), streamed.event(i).size()) << i;
}

TEST(Streaming, SimulatesIdenticallyToMaterialized)
{
    const AppProfile p = smallProfile();
    StreamingWorkload streamed(std::make_unique<GeneratorSource>(p));
    const auto eager = SyntheticGenerator(p).generate();
    const SimResult a =
        Simulator(SimConfig::espFull(true)).run(streamed);
    const SimResult b =
        Simulator(SimConfig::espFull(true)).run(*eager);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.core.mispredicts, b.core.mispredicts);
    EXPECT_DOUBLE_EQ(a.l1iMpki, b.l1iMpki);
}

TEST(StreamingDeathTest, OutOfRangePanics)
{
    StreamingWorkload w = makeStreaming();
    EXPECT_DEATH((void)w.event(999), "out of range");
}
