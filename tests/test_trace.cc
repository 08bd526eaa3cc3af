/**
 * @file
 * Unit tests for the packed op storage, event traces, the speculative
 * view, workload containers, and the WorkloadBuilder public API.
 */

#include <gtest/gtest.h>

#include <vector>

#include "trace/event_trace.hh"
#include "trace/workload.hh"
#include "workload/builder.hh"

using namespace espsim;

namespace
{

EventTrace
makeTrace(std::size_t n)
{
    EventTrace t;
    for (std::size_t i = 0; i < n; ++i) {
        MicroOp op;
        op.pc = 0x1000 + 4 * i;
        t.ops.push_back(op);
    }
    return t;
}

} // namespace

TEST(OpSequence, PackingRoundTripsEveryRepresentableOp)
{
    const std::uint8_t regs[] = {0, numArchRegs - 1, noReg};
    const Addr pcs[] = {0, (Addr{1} << 32) - 4};
    // The largest data address the record holds: every payload bit set.
    const Addr data_addr = (Addr{1} << 35) - 1;
    const Addr target = 0xffff'ffff;
    const Addr payloads[] = {0, data_addr, target};
    const unsigned num_types = static_cast<unsigned>(OpType::Return) + 1;

    // Every field combination the 12-byte record can hold, against a
    // plain vector of the same MicroOps. `combo` counts in mixed radix
    // over type x taken x srcA x srcB x dest x pc x payload.
    OpSequence seq;
    std::vector<MicroOp> ref;
    for (unsigned combo = 0; combo < num_types * 2 * 3 * 3 * 3 * 2 * 3;
         ++combo) {
        unsigned rest = combo;
        const auto pick = [&rest](unsigned n) {
            const unsigned digit = rest % n;
            rest /= n;
            return digit;
        };
        const OpType type = static_cast<OpType>(pick(num_types));
        MicroOp op;
        op.setType(type);
        op.setTaken(pick(2) != 0);
        op.srcA = regs[pick(3)];
        op.srcB = regs[pick(3)];
        op.dest = regs[pick(3)];
        op.pc = pcs[pick(2)];
        const Addr payload = payloads[pick(3)];
        if (payload == data_addr) {
            if (!isMemory(type))
                continue;
            op.memAddr = payload;
        } else if (payload == target) {
            if (!isBranch(type))
                continue;
            op.setBranchTarget(payload);
        }
        seq.push_back(op);
        ref.push_back(op);
    }

    // MicroOp's defaulted == compares every field, private ones too.
    ASSERT_EQ(seq.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        ASSERT_TRUE(seq[i] == ref[i]) << "op " << i;
    std::size_t i = 0;
    for (const MicroOp &op : seq)
        ASSERT_TRUE(op == ref[i++]) << "iterated op " << i - 1;
    EXPECT_EQ(i, ref.size());
}

TEST(OpSequenceDeathTest, PcBeyondThirtyTwoBitsPanics)
{
    OpSequence seq;
    MicroOp op;
    op.pc = Addr{1} << 32;
    EXPECT_DEATH(seq.push_back(op), "pc 0x100000000 exceeds");
}

TEST(OpSequenceDeathTest, AddressBeyondThirtyFiveBitsPanics)
{
    OpSequence seq;
    MicroOp op;
    op.setType(OpType::Store);
    op.memAddr = Addr{1} << 35;
    EXPECT_DEATH(seq.push_back(op), "address 0x800000000 exceeds");
}

TEST(OpSequenceDeathTest, AddressOnNonMemoryOpPanics)
{
    OpSequence seq;
    MicroOp op;
    op.setType(OpType::BranchCond);
    op.memAddr = 0x5000;
    EXPECT_DEATH(seq.push_back(op), "memory address 0x5000 on non-memory");
}

TEST(OpSequenceDeathTest, TargetOnNonControlOpPanics)
{
    OpSequence seq;
    MicroOp op;
    op.setType(OpType::Load);
    op.memAddr = 0x5000;
    op.setBranchTarget(0x1100);
    EXPECT_DEATH(seq.push_back(op), "branch target 0x1100 on non-control");
}

TEST(EventTrace, IndependentSpecViewIsIdentity)
{
    EventTrace t = makeTrace(10);
    EXPECT_TRUE(t.independent());
    EXPECT_EQ(t.speculativeSize(), 10u);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_EQ(t.speculativeOp(i).pc, t.ops[i].pc);
    EXPECT_DOUBLE_EQ(t.speculativeMatchFraction(), 1.0);
}

TEST(EventTrace, DivergedTailReplacesSuffix)
{
    EventTrace t = makeTrace(10);
    t.divergencePoint = 6;
    MicroOp bad;
    bad.pc = 0xdead0000;
    t.divergedTail = {bad, bad};
    EXPECT_FALSE(t.independent());
    EXPECT_EQ(t.speculativeSize(), 8u);
    EXPECT_EQ(t.speculativeOp(5).pc, t.ops[5].pc);
    EXPECT_EQ(t.speculativeOp(6).pc, 0xdead0000u);
    EXPECT_EQ(t.speculativeOp(7).pc, 0xdead0000u);
    EXPECT_NEAR(t.speculativeMatchFraction(), 6.0 / 8.0, 1e-12);
}

TEST(EventTraceDeathTest, SpecOpOutOfRangePanics)
{
    EventTrace t = makeTrace(4);
    EXPECT_DEATH((void)t.speculativeOp(4), "out of range");
}

TEST(Workload, TotalsAndIndependence)
{
    std::vector<EventTrace> events;
    events.push_back(makeTrace(5));
    EventTrace dep = makeTrace(7);
    dep.id = 1;
    dep.divergencePoint = 3;
    dep.divergedTail = {MicroOp{}};
    events.push_back(std::move(dep));
    InMemoryWorkload w("t", std::move(events));
    EXPECT_EQ(w.numEvents(), 2u);
    EXPECT_EQ(w.totalInstructions(), 12u);
    EXPECT_DOUBLE_EQ(w.independentEventFraction(), 0.5);
    EXPECT_TRUE(w.warmSet().empty());
}

TEST(Workload, WarmSetRoundTrip)
{
    InMemoryWorkload w("t", {makeTrace(1)});
    w.setWarmSet({{0x1000, 0x2000}});
    ASSERT_EQ(w.warmSet().size(), 1u);
    EXPECT_EQ(w.warmSet()[0].first, 0x1000u);
}

TEST(WorkloadDeathTest, OutOfRangeEventPanics)
{
    InMemoryWorkload w("t", {makeTrace(1)});
    EXPECT_DEATH((void)w.event(1), "out of range");
}

TEST(Builder, BuildsEventsInOrder)
{
    WorkloadBuilder b;
    b.beginEvent(0x1000, 0x9000);
    b.aluBlock(0x1000, 3);
    b.load(0x100c, 0x5000, 2);
    b.branch(0x1010, true, 0x1100);
    b.beginEvent(0x2000);
    b.alu(0x2000);
    auto w = b.build("custom");

    EXPECT_EQ(w->name(), "custom");
    ASSERT_EQ(w->numEvents(), 2u);
    const EventTrace &e0 = w->event(0);
    EXPECT_EQ(e0.handlerPc, 0x1000u);
    EXPECT_EQ(e0.argObjectAddr, 0x9000u);
    ASSERT_EQ(e0.size(), 5u);
    EXPECT_EQ(e0.ops[3].type(), OpType::Load);
    EXPECT_EQ(e0.ops[3].memAddr, 0x5000u);
    EXPECT_EQ(e0.ops[3].dest, 2);
    EXPECT_TRUE(e0.ops[4].taken());
    EXPECT_EQ(e0.ops[4].branchTarget(), 0x1100u);
    EXPECT_EQ(w->event(1).id, 1u);
}

TEST(Builder, CallAndReturnOps)
{
    WorkloadBuilder b;
    b.beginEvent(0x1000);
    b.call(0x1000, 0x2000).ret(0x2000, 0x1004);
    auto w = b.build("cr");
    const EventTrace &e = w->event(0);
    EXPECT_EQ(e.ops[0].type(), OpType::Call);
    EXPECT_EQ(e.ops[1].type(), OpType::Return);
    EXPECT_EQ(e.ops[1].branchTarget(), 0x1004u);
}

TEST(Builder, DependsOnPreviousSetsDivergence)
{
    WorkloadBuilder b;
    b.beginEvent(0x1000);
    b.alu(0x1000);
    b.beginEvent(0x2000);
    b.aluBlock(0x2000, 4);
    b.dependsOnPrevious(2, {MicroOp{}});
    auto w = b.build("dep");
    EXPECT_TRUE(w->event(0).independent());
    EXPECT_FALSE(w->event(1).independent());
    EXPECT_EQ(w->event(1).divergencePoint, 2u);
    EXPECT_EQ(w->event(1).speculativeSize(), 3u);
}

TEST(Builder, CurrentEventSize)
{
    WorkloadBuilder b;
    EXPECT_EQ(b.currentEventSize(), 0u);
    b.beginEvent(0x1000).aluBlock(0x1000, 7);
    EXPECT_EQ(b.currentEventSize(), 7u);
}

TEST(BuilderDeathTest, OpBeforeBeginEventFatals)
{
    WorkloadBuilder b;
    EXPECT_DEATH(b.alu(0x1000), "beginEvent");
}

TEST(BuilderDeathTest, FirstEventCannotDepend)
{
    WorkloadBuilder b;
    b.beginEvent(0x1000).alu(0x1000);
    EXPECT_DEATH(b.dependsOnPrevious(0, {}), "no predecessor");
}

TEST(BuilderDeathTest, EmptyBuildFatals)
{
    WorkloadBuilder b;
    EXPECT_DEATH((void)b.build("x"), "no events");
}
