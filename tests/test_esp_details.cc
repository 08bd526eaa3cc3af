/**
 * @file
 * Focused tests for ESP controller internals not covered by the
 * behavioural suite: prefetch-lead timing, list promotion with
 * capacity rebuild, ideal-mode semantics, branch-policy plumbing,
 * config accounting, the naive strawman's predictor sharing, and the
 * per-op hook falling quiet once the event's lists drain.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "cpu/ooo_core.hh"
#include "esp/controller.hh"
#include "sim/sim_config.hh"
#include "workload/builder.hh"
#include "workload/generator.hh"

using namespace espsim;

namespace
{

/** Two events; the second's ops are far apart so lead timing shows. */
std::unique_ptr<InMemoryWorkload>
twoEvents(std::size_t second_len = 600)
{
    WorkloadBuilder b;
    b.beginEvent(0x100000);
    for (int i = 0; i < 50; ++i) {
        b.aluBlock(0x100000 + 256 * i, 6);
        b.load(0x100000 + 256 * i + 24, 0x8000000 + 4096 * i, 1);
    }
    b.beginEvent(0x400000);
    for (std::size_t i = 0; i < second_len; ++i)
        b.alu(0x400000 + 4 * i);
    return b.build("two");
}

StallContext
stall(Cycle idle = 100000)
{
    StallContext ctx;
    ctx.kind = StallKind::DataLlcMiss;
    ctx.idleCycles = idle;
    return ctx;
}

/**
 * Forwards every hook to the engine and counts beforeOp() calls. With
 * @p everyOp set it answers perOpActive() true throughout, so the
 * engine sees every op of every event; the engine's own answers must
 * give the same results with fewer calls.
 */
class CountingHooks : public CoreHooks
{
  public:
    CountingHooks(CoreHooks &inner, bool everyOp)
        : inner_(inner), everyOp_(everyOp)
    {
    }

    void
    onEventStart(std::size_t event_idx, Cycle now) override
    {
        inner_.onEventStart(event_idx, now);
    }

    void
    onEventEnd(std::size_t event_idx, Cycle now) override
    {
        inner_.onEventEnd(event_idx, now);
    }

    bool
    perOpActive() const override
    {
        return everyOp_ || inner_.perOpActive();
    }

    void
    beforeOp(std::size_t op_idx, const MicroOp &op, Cycle now) override
    {
        ++beforeOpCalls;
        inner_.beforeOp(op_idx, op, now);
    }

    Cycle
    onStall(const StallContext &ctx) override
    {
        return inner_.onStall(ctx);
    }

    SpecEngine engine() const override { return inner_.engine(); }

    std::uint64_t beforeOpCalls = 0;

  private:
    CoreHooks &inner_;
    const bool everyOp_;
};

/** Run @p cfg on @p w and return every core, memory, predictor and ESP
 *  stat; @p calls receives the number of beforeOp() calls. */
std::map<std::string, double>
espStats(const SimConfig &cfg, const Workload &w, bool every_op,
         std::uint64_t &calls)
{
    MemoryHierarchy mem(cfg.memory);
    PentiumMPredictor bp(cfg.branch);
    EspController esp(cfg.esp, mem, bp, w, cfg.core.width);
    CountingHooks hooks(esp, every_op);
    OoOCore core(cfg.core, mem, bp, cfg.prefetch, hooks);
    StatRegistry reg;
    core.registerStats(reg, "core.");
    mem.registerStats(reg, "mem.");
    bp.registerStats(reg, "bp.");
    esp.registerStats(reg, "esp.");
    core.run(w);
    mem.finalizePrefetchLifecycles();
    calls = hooks.beforeOpCalls;
    return reg.snapshot().values();
}

} // namespace

TEST(EspDetail, PerOpHookGoesQuietWithoutChangingResults)
{
    // Events longer than the lists' reach (maxPreExecPerEvent ops), so
    // every event with lists drains them well before its end.
    AppProfile p = AppProfile::byName("gmaps");
    p.numEvents = 16;
    p.avgEventLen = 20000;
    const auto w = SyntheticGenerator(p).generate();

    // ESP+NL, and the B-list alone: there only the branch records
    // keep the hook alive.
    for (const SimConfig &cfg :
         {SimConfig::espFull(true),
          SimConfig::espAblation(false, true, false)}) {
        SCOPED_TRACE(cfg.name);
        std::uint64_t every_calls = 0, quiet_calls = 0;
        const auto every = espStats(cfg, *w, true, every_calls);
        const auto quiet = espStats(cfg, *w, false, quiet_calls);
        ASSERT_GT(every.at("esp.branches_pre_trained"), 0.0);
        ASSERT_EQ(every.size(), quiet.size());
        for (const auto &[name, value] : every)
            EXPECT_EQ(quiet.at(name), value) << name;
        EXPECT_LT(quiet_calls * 3, every_calls)
            << "every op " << every_calls << ", quiet " << quiet_calls;
    }
}

TEST(EspDetail, PrefetchLeadGatesConsumption)
{
    // With a tiny lead, list prefetches for ops far into the event
    // must not fire until beforeOp approaches their instCount.
    std::unique_ptr<InMemoryWorkload> w = twoEvents(600);
    MemoryHierarchy mem{HierarchyConfig{}};
    PentiumMPredictor bp;
    EspConfig cfg;
    cfg.prefetchLeadInstructions = 32;
    EspController esp(cfg, mem, bp, *w, 4);

    esp.onEventStart(0, 0);
    for (int k = 0; k < 10; ++k)
        esp.onStall(stall());
    esp.onEventEnd(0, 50'000);
    esp.onEventStart(1, 50'100);
    const double at_start = esp.stats().listPrefetchesInstr;
    // Walk the event; more prefetches must drain as we advance.
    for (std::size_t i = 0; i < 300; ++i)
        esp.beforeOp(i, w->event(1).ops[i], 51'000 + i);
    const double mid = esp.stats().listPrefetchesInstr;
    EXPECT_GT(mid, at_start);

    // A huge lead issues everything at event start instead.
    MemoryHierarchy mem2{HierarchyConfig{}};
    PentiumMPredictor bp2;
    EspConfig cfg2;
    cfg2.prefetchLeadInstructions = 1'000'000;
    EspController esp2(cfg2, mem2, bp2, *w, 4);
    esp2.onEventStart(0, 0);
    for (int k = 0; k < 10; ++k)
        esp2.onStall(stall());
    esp2.onEventEnd(0, 50'000);
    esp2.onEventStart(1, 50'100);
    const double eager = esp2.stats().listPrefetchesInstr;
    EXPECT_GE(eager, mid);
}

TEST(EspDetail, IdealModeBypassesCapacities)
{
    std::unique_ptr<InMemoryWorkload> w = twoEvents();
    MemoryHierarchy mem{HierarchyConfig{}};
    PentiumMPredictor bp;
    EspConfig cfg;
    cfg.ideal = true;
    EspController esp(cfg, mem, bp, *w, 4);
    esp.onEventStart(0, 0);
    for (int k = 0; k < 20; ++k)
        esp.onStall(stall());
    EXPECT_EQ(esp.stats().iListOverflows, 0u);
    EXPECT_EQ(esp.stats().dListOverflows, 0u);
    EXPECT_EQ(esp.stats().bListOverflows, 0u);
}

TEST(EspDetail, NaiveModeSharesPredictorContext)
{
    // In naive mode, pre-execution perturbs the normal PIR/RAS: a call
    // pre-executed speculatively leaves its return address on the
    // architectural RAS.
    WorkloadBuilder b;
    b.beginEvent(0x100000);
    b.aluBlock(0x100000, 8);
    b.load(0x100020, 0x8000000, 1);
    b.beginEvent(0x200000);
    b.call(0x200000, 0x300000);
    b.aluBlock(0x300000, 8);
    auto w = b.build("naive");

    MemoryHierarchy mem{HierarchyConfig{}};
    PentiumMPredictor bp;
    EspConfig cfg;
    cfg.naiveMode = true;
    cfg.branchPolicy = BranchPolicy::NoExtraHardware;
    EspController esp(cfg, mem, bp, *w, 4);
    esp.onEventStart(0, 0);
    esp.onStall(stall());
    EXPECT_FALSE(bp.context().ras.empty());

    // The clean design leaves the architectural context untouched.
    MemoryHierarchy mem2{HierarchyConfig{}};
    PentiumMPredictor bp2;
    EspConfig clean;
    EspController esp2(clean, mem2, bp2, *w, 4);
    esp2.onEventStart(0, 0);
    esp2.onStall(stall());
    EXPECT_TRUE(bp2.context().ras.empty());
}

TEST(EspDetail, ReplicaPolicyAdoptsTablesOnPromotion)
{
    WorkloadBuilder b;
    b.beginEvent(0x100000);
    b.aluBlock(0x100000, 8);
    b.load(0x100020, 0x8000000, 1);
    b.beginEvent(0x200000);
    for (int i = 0; i < 40; ++i) {
        b.aluBlock(0x200000 + 64 * i, 6);
        b.branch(0x200000 + 64 * i + 24, true, 0x200000 + 64 * (i + 1));
    }
    auto w = b.build("replica");

    MemoryHierarchy mem{HierarchyConfig{}};
    PentiumMPredictor bp;
    EspConfig cfg;
    cfg.branchPolicy = BranchPolicy::SeparatePirAndTables;
    cfg.useBList = false;
    EspController esp(cfg, mem, bp, *w, 4);
    esp.onEventStart(0, 0);
    for (int k = 0; k < 6; ++k)
        esp.onStall(stall());
    // Before promotion the main predictor is still cold on event 1's
    // branches (the replica absorbed the training)...
    MicroOp probe = w->event(1).ops[6]; // a taken branch
    ASSERT_TRUE(probe.isBranchOp());
    EXPECT_EQ(bp.predictOnly(probe).target, 0u);
    // ...after promotion the replica's tables are adopted.
    esp.onEventEnd(0, 9000);
    EXPECT_EQ(bp.predictOnly(probe).target, probe.branchTarget());
}

TEST(EspDetail, ListBytesHonorsIdealAndDepth)
{
    EspConfig cfg;
    EXPECT_EQ(cfg.listBytes(cfg.iListBytes, 0), 499u);
    EXPECT_EQ(cfg.listBytes(cfg.iListBytes, 1), 68u);
    // Depths beyond the provisioned two reuse the deepest capacity.
    EXPECT_EQ(cfg.listBytes(cfg.iListBytes, 5), 68u);
    cfg.ideal = true;
    EXPECT_EQ(cfg.listBytes(cfg.iListBytes, 0), 0u); // unbounded
}

TEST(EspDetail, PromotionRebuildTruncatesToEsp1Capacity)
{
    // Pre-execute deep enough that the ESP-2 slot records entries,
    // then promote twice and confirm the controller never overflows
    // its rebuilt capacities (it would panic or mis-count otherwise).
    WorkloadBuilder b;
    for (int e = 0; e < 4; ++e) {
        const Addr code = 0x100000 * (e + 1);
        b.beginEvent(code);
        for (int i = 0; i < 60; ++i) {
            b.aluBlock(code + 512 * i, 6);
            b.load(code + 512 * i + 24, 0x8000000 + 0x40000 * e + 512 * i,
                   1);
        }
    }
    auto w = b.build("promote");
    MemoryHierarchy mem{HierarchyConfig{}};
    PentiumMPredictor bp;
    EspController esp(EspConfig{}, mem, bp, *w, 4);
    esp.onEventStart(0, 0);
    for (int k = 0; k < 30; ++k)
        esp.onStall(stall());
    esp.onEventEnd(0, 100'000);
    esp.onEventStart(1, 100'100);
    for (int k = 0; k < 30; ++k)
        esp.onStall(stall());
    esp.onEventEnd(1, 200'000);
    esp.onEventStart(2, 200'100);
    for (std::size_t i = 0; i < 100; ++i)
        esp.beforeOp(i, w->event(2).ops[i], 201'000 + i);
    EXPECT_GT(esp.stats().listPrefetchesInstr, 0u);
    EXPECT_GE(esp.stats().eventsPreExecuted, 2u);
}

TEST(EspDetail, DeeperThanProvisionedDepthsUseTrackingSets)
{
    // maxDepth 4: depths 3 and 4 have no physical cachelet partition
    // and must still pre-execute (via unbounded tracking sets).
    WorkloadBuilder b;
    for (int e = 0; e < 6; ++e) {
        const Addr code = 0x100000 * (e + 1);
        b.beginEvent(code);
        b.aluBlock(code, 8);
        b.load(code + 32, 0x8000000 + 0x10000 * e, 1);
        b.aluBlock(code + 64, 8);
    }
    auto w = b.build("deep");
    MemoryHierarchy mem{HierarchyConfig{}};
    PentiumMPredictor bp;
    EspConfig cfg;
    cfg.maxDepth = 4;
    EspController esp(cfg, mem, bp, *w, 4);
    esp.onEventStart(0, 0);
    for (int k = 0; k < 10; ++k)
        esp.onStall(stall());
    EXPECT_GE(esp.stats().eventsPreExecuted, 3u);
}

TEST(EspDetailDeathTest, ZeroDepthFatals)
{
    WorkloadBuilder b;
    b.beginEvent(0x1000).alu(0x1000);
    auto w = b.build("z");
    MemoryHierarchy mem{HierarchyConfig{}};
    PentiumMPredictor bp;
    EspConfig cfg;
    cfg.maxDepth = 0;
    EXPECT_DEATH(EspController(cfg, mem, bp, *w, 4), "maxDepth");
}
