/**
 * @file
 * Tests for the OoO core timing model, driven by hand-built traces:
 * width-limited throughput, dependency/load-use issue costs, I-cache
 * miss bubbles, mispredict redirects, MLP overlap through the ROB,
 * looper overhead, stall-window delivery to the hooks, and a dependent
 * load chain against the miss-latency arithmetic.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/ooo_core.hh"
#include "workload/builder.hh"

using namespace espsim;

namespace
{

struct Fixture
{
    HierarchyConfig memCfg;
    CoreConfig coreCfg;
    PrefetcherConfig noPf;

    Fixture()
    {
        coreCfg.looperOverheadInstr = 0; // keep arithmetic exact
    }
};

/** Cycles @p core charged to @p bucket. */
Cycle
bucketCycles(const OoOCore &core, CycleBucket bucket)
{
    return core.stats().bucketCycles[static_cast<unsigned>(bucket)];
}

/** Hook that records every stall window. */
class RecordingHooks : public CoreHooks
{
  public:
    std::vector<StallContext> stalls;
    std::vector<std::size_t> eventStarts;

    Cycle
    onStall(const StallContext &ctx) override
    {
        stalls.push_back(ctx);
        return 0;
    }

    void
    onEventStart(std::size_t idx, Cycle) override
    {
        eventStarts.push_back(idx);
    }
};

/** Independent ALU ops (distinct registers, no chains), looping
 *  within a single I-cache block so fetch never misses after the
 *  first access. */
std::unique_ptr<InMemoryWorkload>
independentAlus(std::size_t n)
{
    WorkloadBuilder b;
    b.beginEvent(0x1000);
    for (std::size_t i = 0; i < n; ++i) {
        MicroOp op;
        op.pc = 0x1000 + 4 * (i % 16);
        op.setType(OpType::IntAlu);
        op.dest = static_cast<std::uint8_t>(i % 8);
        op.srcA = static_cast<std::uint8_t>(8 + (i % 8));
        op.srcB = static_cast<std::uint8_t>(16 + (i % 8));
        b.op(op);
    }
    return b.build("alus");
}

/**
 * K groups of one conditional branch at @p pc followed by
 * @p alus_per_branch independent ALU ops in the same I-cache block.
 * Each branch's outcome is the opposite of what a fresh predictor,
 * fed the same branch sequence, predicts at that point; a core whose
 * predictor starts from the same default state therefore mispredicts
 * every one of them.
 */
std::unique_ptr<InMemoryWorkload>
alwaysMispredicted(std::size_t k, std::size_t alus_per_branch)
{
    const Addr pc = 0x1000;
    PentiumMPredictor shadow;
    WorkloadBuilder b;
    b.beginEvent(pc);
    for (std::size_t i = 0; i < k; ++i) {
        MicroOp br;
        br.pc = pc;
        br.setType(OpType::BranchCond);
        const bool taken = !shadow.predictOnly(br).taken;
        br.setTaken(taken);
        br.setBranchTarget(taken ? pc : 0);
        shadow.executeBranch(br);
        b.op(br);
        for (std::size_t j = 1; j <= alus_per_branch; ++j)
            b.alu(pc + 4 * j);
    }
    return b.build("mispredicted");
}

/** Cycles @p w takes on a fresh core whose code block at 0x1000 is
 *  already in the L1-I (so no cold fetch bubble). */
Cycle
warmCycles(const Fixture &f, const InMemoryWorkload &w,
           std::uint64_t *mispredicts = nullptr)
{
    MemoryHierarchy mem(f.memCfg);
    mem.accessInstr(0x1000, 0);
    PentiumMPredictor bp;
    CoreHooks hooks;
    OoOCore core(f.coreCfg, mem, bp, f.noPf, hooks);
    core.run(w);
    if (mispredicts)
        *mispredicts = core.stats().mispredicts;
    return core.stats().cycles;
}

} // namespace

TEST(Core, WidthBoundOnIndependentCode)
{
    // Closed form for N independent ALU ops in one warm block: the
    // core issues `width` ops per cycle, so the last op issues in
    // cycle ceil(N / width) - 1 and completes pipelineDepth cycles
    // later, when the event-end drain stops the clock. The run
    // therefore takes ceil(N / width) cycles plus a fill constant of
    // pipelineDepth - 1: the last issue group's fetch-to-complete
    // latency beyond its own issue cycle.
    Fixture f;
    const Cycle width = f.coreCfg.width;
    const Cycle fill = f.coreCfg.pipelineDepth - 1;
    for (const std::size_t n : {1u, 3u, 4u, 5u, 97u, 4000u}) {
        auto w = independentAlus(n);
        EXPECT_EQ(warmCycles(f, *w), (n + width - 1) / width + fill)
            << "n = " << n;
    }

    // A cold block adds exactly one fetch bubble: the L2 and DRAM
    // latencies a memory fill costs beyond the L1 hit, less the
    // latency the fetch queue hides.
    auto w = independentAlus(4000);
    MemoryHierarchy mem(f.memCfg);
    PentiumMPredictor bp;
    CoreHooks hooks;
    OoOCore core(f.coreCfg, mem, bp, f.noPf, hooks);
    core.run(*w);
    EXPECT_EQ(core.stats().instructions, 4000u);
    EXPECT_EQ(core.stats().events, 1u);
    const Cycle cold_bubble = f.memCfg.l2.hitLatency +
        f.memCfg.memLatency - f.coreCfg.fetchQueueHide;
    EXPECT_EQ(core.stats().cycles,
              (4000 + width - 1) / width + fill + cold_bubble);
}

TEST(Core, DependencyChainsReduceIpc)
{
    Fixture f;
    WorkloadBuilder b;
    b.beginEvent(0x1000);
    for (std::size_t i = 0; i < 4000; ++i) {
        MicroOp op;
        op.pc = 0x1000 + 4 * (i % 16);
        op.setType(OpType::IntAlu);
        op.dest = 1;
        op.srcA = 1; // consumes the previous result every time
        b.op(op);
    }
    auto w = b.build("chain");
    MemoryHierarchy mem(f.memCfg);
    PentiumMPredictor bp;
    CoreHooks hooks;
    OoOCore core(f.coreCfg, mem, bp, f.noPf, hooks);
    core.run(*w);
    auto w2 = independentAlus(4000);
    MemoryHierarchy mem2(f.memCfg);
    PentiumMPredictor bp2;
    OoOCore core2(f.coreCfg, mem2, bp2, f.noPf, hooks);
    core2.run(*w2);
    EXPECT_LT(core.stats().ipc(), core2.stats().ipc() * 0.7);
}

TEST(Core, MispredictsCostCycles)
{
    Fixture f;
    // Pseudo-random outcomes at one PC defeat every predictor
    // structure (including the loop predictor).
    WorkloadBuilder b;
    b.beginEvent(0x1000);
    std::uint64_t lfsr = 0xace1;
    for (std::size_t i = 0; i < 2000; ++i) {
        b.aluBlock(0x1000 + 4 * (i % 8), 1);
        lfsr = (lfsr >> 1) ^ (-(lfsr & 1u) & 0xb400u);
        MicroOp br;
        br.pc = 0x2000;
        br.setType(OpType::BranchCond);
        br.setTaken((lfsr & 1) != 0);
        br.setBranchTarget(br.taken() ? 0x1000 + 4 * ((i + 1) % 8) : 0);
        b.op(br);
    }
    auto w = b.build("flaky");
    MemoryHierarchy mem(f.memCfg);
    PentiumMPredictor bp;
    CoreHooks hooks;
    OoOCore core(f.coreCfg, mem, bp, f.noPf, hooks);
    core.run(*w);
    EXPECT_GT(core.stats().mispredicts, 200u);
    EXPECT_GT(bucketCycles(core, CycleBucket::MispredictRedirect), 0u);
    EXPECT_LT(core.stats().ipc(), 1.5);
}

TEST(Core, PerfectBranchSkipsPenalties)
{
    Fixture f;
    f.coreCfg.perfectBranch = true;
    WorkloadBuilder b;
    b.beginEvent(0x1000);
    for (std::size_t i = 0; i < 500; ++i)
        b.branch(0x1000, i % 2 == 0, 0x1004);
    auto w = b.build("br");
    MemoryHierarchy mem(f.memCfg);
    PentiumMPredictor bp;
    CoreHooks hooks;
    OoOCore core(f.coreCfg, mem, bp, f.noPf, hooks);
    core.run(*w);
    EXPECT_EQ(core.stats().mispredicts, 0u);
    EXPECT_EQ(bucketCycles(core, CycleBucket::MispredictRedirect), 0u);
    EXPECT_EQ(core.stats().branches, 500u);
}

TEST(Core, EachMispredictCostsThePenaltyOverPerfectPrediction)
{
    // K branches that all mispredict, each followed by width - 1
    // independent ALU ops: under perfect prediction every branch
    // issues in slot 0 of its own cycle. A mispredict moves the
    // branch's group to dispatch + mispredictPenalty and restarts it
    // at slot 0, so the group still fills exactly one cycle and each
    // branch costs exactly mispredictPenalty: per-branch slack 0.
    Fixture f;
    const std::size_t k = 300;
    const Cycle penalty = f.coreCfg.mispredictPenalty;
    auto aligned = alwaysMispredicted(k, f.coreCfg.width - 1);
    std::uint64_t mispredicts = 0;
    const Cycle predicted = warmCycles(f, *aligned, &mispredicts);
    ASSERT_EQ(mispredicts, k);
    Fixture perfect;
    perfect.coreCfg.perfectBranch = true;
    const Cycle ideal = warmCycles(perfect, *aligned);
    EXPECT_EQ(ideal, k + f.coreCfg.pipelineDepth - 1);
    EXPECT_EQ(predicted - ideal, k * penalty);

    // Branches back to back: each mispredict holds the front end for
    // mispredictPenalty cycles from its own issue cycle, and the last
    // redirect hides the pipeline fill (pipelineDepth <=
    // mispredictPenalty), so the run takes exactly K * penalty. Under
    // perfect prediction the same K branches issue `width` per cycle.
    // The difference is K * penalty less the 1 / width issue cycle
    // each branch costs anyway: a per-branch slack under one cycle.
    auto dense = alwaysMispredicted(k, 0);
    const Cycle dense_predicted = warmCycles(f, *dense, &mispredicts);
    ASSERT_EQ(mispredicts, k);
    const Cycle dense_ideal = warmCycles(perfect, *dense);
    const Cycle width = f.coreCfg.width;
    ASSERT_LE(f.coreCfg.pipelineDepth, penalty);
    EXPECT_EQ(dense_predicted, k * penalty);
    EXPECT_EQ(dense_ideal, (k + width - 1) / width +
                               f.coreCfg.pipelineDepth - 1);
    const Cycle slack_per_branch = 1;
    EXPECT_LE(dense_predicted - dense_ideal, k * penalty);
    EXPECT_GE(dense_predicted - dense_ideal,
              k * (penalty - slack_per_branch));
}

TEST(Core, IcacheMissesStallFetch)
{
    Fixture f;
    // Touch 200 distinct, far-apart I-blocks once each: every block is
    // a cold memory miss.
    WorkloadBuilder b;
    b.beginEvent(0x100000);
    for (std::size_t i = 0; i < 200; ++i)
        b.alu(0x100000 + i * 64 * 1024);
    auto w = b.build("coldcode");
    MemoryHierarchy mem(f.memCfg);
    PentiumMPredictor bp;
    RecordingHooks hooks;
    OoOCore core(f.coreCfg, mem, bp, f.noPf, hooks);
    core.run(*w);
    EXPECT_EQ(core.stats().llcMissesInstr, 200u);
    EXPECT_GT(bucketCycles(core, CycleBucket::IcacheMiss), 200u * 80u);
    // Each cold fetch is a reportable stall window.
    EXPECT_EQ(hooks.stalls.size(), 200u);
    EXPECT_EQ(hooks.stalls[0].kind, StallKind::InstrLlcMiss);
}

TEST(Core, DataLlcMissDeliversStallWindowWithDest)
{
    Fixture f;
    WorkloadBuilder b;
    b.beginEvent(0x1000);
    b.aluBlock(0x1000, 8);
    b.load(0x1020, 0x9000000, /*dest=*/5);
    b.aluBlock(0x1024, 8);
    auto w = b.build("onemiss");
    MemoryHierarchy mem(f.memCfg);
    PentiumMPredictor bp;
    RecordingHooks hooks;
    OoOCore core(f.coreCfg, mem, bp, f.noPf, hooks);
    core.run(*w);
    ASSERT_GE(hooks.stalls.size(), 1u);
    bool found = false;
    for (const auto &sctx : hooks.stalls) {
        if (sctx.kind == StallKind::DataLlcMiss && sctx.missDest == 5)
            found = true;
    }
    EXPECT_TRUE(found);
    EXPECT_EQ(core.stats().llcMissesData, 1u);
}

TEST(Core, MlpOverlapsIndependentMisses)
{
    Fixture f;
    // Eight independent cold loads back to back: their memory
    // latencies overlap in the ROB, so the run is far cheaper than
    // eight serialised misses.
    WorkloadBuilder b;
    b.beginEvent(0x1000);
    for (std::size_t i = 0; i < 8; ++i)
        b.load(0x1000 + 4 * i, 0x8000000 + i * 4096,
               static_cast<std::uint8_t>(i));
    for (std::size_t i = 0; i < 64; ++i)
        b.alu(0x1100 + 4 * i);
    auto w = b.build("mlp");
    MemoryHierarchy mem(f.memCfg);
    PentiumMPredictor bp;
    CoreHooks hooks;
    OoOCore core(f.coreCfg, mem, bp, f.noPf, hooks);
    core.run(*w);
    // One miss ~124 cycles; 8 serialised plus the cold code blocks
    // would be well over 1000.
    EXPECT_LT(core.stats().cycles, 800u);
}

TEST(Core, DependentLoadChainAgainstMissArithmetic)
{
    // K loads, each reading its address from the one before (srcA is
    // the previous dest) and each to a distinct block, run cold (every
    // load misses the L1-D and the L2, which is the LLC) and warm
    // (every block already in the L1-D). For a core that waits for
    // each address, every cold load adds exactly
    // l1d.hitLatency + l2.hitLatency + memLatency over the warm chain.
    //
    // The model disagrees, and this test pins the gap exactly:
    //  - a load completes res.latency - l1d.hitLatency after dispatch
    //    + pipelineDepth, so the L1-D hit latency is inside the
    //    pipeline and a miss adds l2.hitLatency + memLatency;
    //  - the core tracks no register readiness, so a load issues
    //    without waiting for the load that produces its address: the
    //    misses of a chain that fits the LSQ overlap and only the last
    //    one is exposed.
    // The cold chain thus costs l2.hitLatency + memLatency over the
    // warm one for every K up to lsqSize, short of the arithmetic by
    // K * (l1d + l2 + mem) - (l2 + mem) cycles: 2 cycles at K = 1,
    // 1862 at K = 16 with the default latencies (2, 21, 101).
    Fixture f;
    const Cycle l2 = f.memCfg.l2.hitLatency;
    const Cycle mem_lat = f.memCfg.memLatency;
    const Addr code = 0x1000;
    const Addr data = 0x4000000;
    for (const std::size_t k : {std::size_t{1}, std::size_t{4},
                                std::size_t{f.coreCfg.lsqSize}}) {
        WorkloadBuilder b;
        b.beginEvent(code);
        for (std::size_t i = 0; i < k; ++i) {
            MicroOp op;
            op.pc = code + 4 * (i % 16);
            op.setType(OpType::Load);
            op.memAddr = data + i * blockBytes;
            op.dest = 5;
            op.srcA = 5;
            b.op(op);
        }
        const auto chain = b.build("chain");
        const auto run = [&](bool warm, std::uint64_t *llc_misses) {
            MemoryHierarchy mem(f.memCfg);
            mem.accessInstr(code, 0);
            for (std::size_t i = 0; warm && i < k; ++i)
                mem.accessData(data + i * blockBytes, false, 0);
            PentiumMPredictor bp;
            CoreHooks hooks;
            OoOCore core(f.coreCfg, mem, bp, f.noPf, hooks);
            core.run(*chain);
            *llc_misses = core.stats().llcMissesData;
            return core.stats().cycles;
        };
        std::uint64_t cold_misses = 0;
        std::uint64_t warm_misses = 0;
        const Cycle cold = run(false, &cold_misses);
        const Cycle warm = run(true, &warm_misses);
        ASSERT_EQ(cold_misses, k);
        ASSERT_EQ(warm_misses, 0u);
        // The arithmetic says k * (l1 + l2 + mem_lat); see the gap
        // above.
        EXPECT_EQ(cold - warm, l2 + mem_lat) << "K = " << k;
    }
}

TEST(Core, LooperOverheadAddsInstructionsBetweenEvents)
{
    Fixture f;
    f.coreCfg.looperOverheadInstr = 70;
    WorkloadBuilder b;
    b.beginEvent(0x1000).aluBlock(0x1000, 10);
    b.beginEvent(0x2000).aluBlock(0x2000, 10);
    auto w = b.build("two");
    MemoryHierarchy mem(f.memCfg);
    PentiumMPredictor bp;
    RecordingHooks hooks;
    OoOCore core(f.coreCfg, mem, bp, f.noPf, hooks);
    core.run(*w);
    EXPECT_EQ(core.stats().instructions, 20u + 2u * 70u);
    EXPECT_EQ(hooks.eventStarts.size(), 2u);
}

TEST(Core, EventBoundariesInvokeHooksInOrder)
{
    Fixture f;
    WorkloadBuilder b;
    for (int e = 0; e < 5; ++e)
        b.beginEvent(0x1000 * (e + 1)).aluBlock(0x1000 * (e + 1), 4);
    auto w = b.build("five");
    MemoryHierarchy mem(f.memCfg);
    PentiumMPredictor bp;
    RecordingHooks hooks;
    OoOCore core(f.coreCfg, mem, bp, f.noPf, hooks);
    core.run(*w);
    ASSERT_EQ(hooks.eventStarts.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(hooks.eventStarts[i], i);
}

TEST(Core, CyclesMonotonicWithWork)
{
    Fixture f;
    auto small = independentAlus(1000);
    auto large = independentAlus(4000);
    MemoryHierarchy m1(f.memCfg), m2(f.memCfg);
    PentiumMPredictor b1, b2;
    CoreHooks hooks;
    OoOCore c1(f.coreCfg, m1, b1, f.noPf, hooks);
    OoOCore c2(f.coreCfg, m2, b2, f.noPf, hooks);
    c1.run(*small);
    c2.run(*large);
    EXPECT_LT(c1.stats().cycles, c2.stats().cycles);
}

TEST(Core, NextLinePrefetcherReducesIcacheStalls)
{
    Fixture f;
    // Long sequential code: next-line prefetching should help a lot.
    WorkloadBuilder b;
    b.beginEvent(0x1000);
    for (std::size_t i = 0; i < 20000; ++i)
        b.alu(0x1000 + 4 * i);
    auto w = b.build("seq");

    MemoryHierarchy m1(f.memCfg), m2(f.memCfg);
    PentiumMPredictor b1, b2;
    CoreHooks hooks;
    PrefetcherConfig with_nl;
    with_nl.nextLineInstr = true;
    OoOCore base(f.coreCfg, m1, b1, f.noPf, hooks);
    OoOCore nl(f.coreCfg, m2, b2, with_nl, hooks);
    base.run(*w);
    nl.run(*w);
    EXPECT_LT(bucketCycles(nl, CycleBucket::IcacheMiss),
              bucketCycles(base, CycleBucket::IcacheMiss) / 2);
    EXPECT_LT(nl.stats().cycles, base.stats().cycles);
}
