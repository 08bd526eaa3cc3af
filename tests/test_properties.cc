/**
 * @file
 * Parameterized property sweeps across the whole application suite and
 * the whole configuration registry — the invariants that must hold for
 * *every* workload/design-point combination, not just the ones other
 * test files probe individually.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "common/rng.hh"
#include "sim/simulator.hh"
#include "workload/generator.hh"

using namespace espsim;

namespace
{

/** Shrink a suite profile for fast sweeps (~60-120k instructions). */
AppProfile
shrunk(const std::string &name)
{
    AppProfile p = AppProfile::byName(name);
    p.numEvents = 8;
    p.avgEventLen = std::min(p.avgEventLen, 9000.0);
    return p;
}

const InMemoryWorkload &
cachedWorkload(const std::string &name)
{
    static std::unordered_map<std::string,
                              std::unique_ptr<InMemoryWorkload>>
        cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
        it = cache
                 .emplace(name,
                          SyntheticGenerator(shrunk(name)).generate())
                 .first;
    }
    return *it->second;
}

} // namespace

// --- per-application sweep ------------------------------------------

class AppSweep : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AppSweep, TraceIsWellFormed)
{
    const InMemoryWorkload &w = cachedWorkload(GetParam());
    ASSERT_EQ(w.numEvents(), 8u);
    for (std::size_t e = 0; e < w.numEvents(); ++e) {
        const EventTrace &ev = w.event(e);
        ASSERT_GT(ev.size(), 0u);
        for (const MicroOp &op : ev.ops) {
            // Memory ops carry addresses; branches carry outcomes.
            if (op.isMemoryOp()) {
                ASSERT_NE(op.memAddr, 0u);
            }
            if (op.isBranchOp() && op.taken()) {
                ASSERT_NE(op.branchTarget(), 0u);
            }
            if (!op.isBranchOp()) {
                ASSERT_FALSE(op.taken());
            }
        }
    }
}

TEST_P(AppSweep, ControlFlowIsContiguous)
{
    const InMemoryWorkload &w = cachedWorkload(GetParam());
    for (std::size_t e = 0; e < w.numEvents(); ++e) {
        const EventTrace &ev = w.event(e);
        for (std::size_t i = 0; i + 1 < ev.size(); ++i) {
            const MicroOp &op = ev.ops[i];
            const Addr next =
                op.taken() ? op.branchTarget() : op.pc + 4;
            ASSERT_EQ(ev.ops[i + 1].pc, next)
                << GetParam() << " event " << e << " op " << i;
        }
    }
}

TEST_P(AppSweep, EspNeverChangesCommittedWork)
{
    const InMemoryWorkload &w = cachedWorkload(GetParam());
    const SimResult base = Simulator(SimConfig::baseline()).run(w);
    const SimResult esp = Simulator(SimConfig::espFull(true)).run(w);
    EXPECT_EQ(base.core.instructions, esp.core.instructions);
    EXPECT_EQ(base.core.branches, esp.core.branches);
    EXPECT_EQ(base.core.loads, esp.core.loads);
    EXPECT_EQ(base.core.stores, esp.core.stores);
    EXPECT_EQ(base.core.events, esp.core.events);
}

TEST_P(AppSweep, EspImprovesOrMatchesEveryApp)
{
    const InMemoryWorkload &w = cachedWorkload(GetParam());
    const SimResult nl = Simulator(SimConfig::nextLine()).run(w);
    const SimResult esp = Simulator(SimConfig::espFull(true)).run(w);
    // Small shrunken workloads are noisy; allow a 2% regression band.
    EXPECT_LT(esp.cycles, nl.cycles * 1.02) << GetParam();
    EXPECT_LE(esp.l1iMpki, nl.l1iMpki * 1.02) << GetParam();
}

TEST_P(AppSweep, StallWindowsExistAndAreConsumed)
{
    const InMemoryWorkload &w = cachedWorkload(GetParam());
    const SimResult esp = Simulator(SimConfig::espFull(true)).run(w);
    EXPECT_GT(esp.core.stallWindows, 0u);
    EXPECT_GT(esp.stats.get("esp.jumps"), 0.0);
    EXPECT_GT(esp.stats.get("esp.pre_executed_instrs"), 0.0);
}

TEST_P(AppSweep, EnergyDecompositionConsistent)
{
    const InMemoryWorkload &w = cachedWorkload(GetParam());
    const SimResult r = Simulator(SimConfig::espFull(true)).run(w);
    EXPECT_NEAR(r.energy.total(),
                r.stats.get("energy.static") +
                    r.stats.get("energy.mispredict") +
                    r.stats.get("energy.dynamic"),
                1e-6 * r.energy.total());
    EXPECT_GT(r.energy.staticEnergy, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Suite, AppSweep,
                         ::testing::Values("amazon", "bing", "cnn",
                                           "facebook", "gmaps", "gdocs",
                                           "pixlr"));

// --- per-configuration sweep ----------------------------------------

namespace
{

std::vector<SimConfig>
allConfigs()
{
    return {
        SimConfig::baseline(),
        SimConfig::nextLine(),
        SimConfig::nextLineStride(),
        SimConfig::nextLineInstrOnly(),
        SimConfig::nextLineDataOnly(),
        SimConfig::runaheadExec(false),
        SimConfig::runaheadExec(true),
        SimConfig::runaheadDataOnly(true),
        SimConfig::espFull(false),
        SimConfig::espFull(true),
        SimConfig::espNaive(true),
        SimConfig::espAblation(true, false, false),
        SimConfig::espAblation(true, true, false),
        SimConfig::espAblation(true, true, true),
        SimConfig::espInstrOnly(true, false),
        SimConfig::espInstrOnly(true, true),
        SimConfig::espDataOnly(true, false),
        SimConfig::espBranchPolicy(BranchPolicy::NoExtraHardware),
        SimConfig::espBranchPolicy(BranchPolicy::SeparatePir),
        SimConfig::espBranchPolicy(BranchPolicy::SeparatePirAndTables),
        SimConfig::perfect(true, false, false),
        SimConfig::perfect(false, true, false),
        SimConfig::perfect(false, false, true),
        SimConfig::perfect(true, true, true),
        SimConfig::espWorkingSetStudy(4),
    };
}

} // namespace

class ConfigSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ConfigSweep, RunsToCompletionAndIsDeterministic)
{
    const SimConfig cfg = allConfigs()[GetParam()];
    const InMemoryWorkload &w = cachedWorkload("amazon");
    const SimResult a = Simulator(cfg).run(w);
    const SimResult b = Simulator(cfg).run(w);
    EXPECT_GT(a.cycles, 0u) << cfg.name;
    EXPECT_EQ(a.cycles, b.cycles) << cfg.name;
    EXPECT_EQ(a.core.mispredicts, b.core.mispredicts) << cfg.name;
    EXPECT_DOUBLE_EQ(a.energy.total(), b.energy.total()) << cfg.name;
    // The committed stream is the same as the plain baseline's.
    EXPECT_EQ(a.core.instructions,
              Simulator(SimConfig::baseline()).run(w).core.instructions)
        << cfg.name;
    // Sanity on derived metrics.
    EXPECT_GE(a.mispredictRate, 0.0);
    EXPECT_LE(a.mispredictRate, 1.0);
    EXPECT_GE(a.l1dMissRate, 0.0);
    EXPECT_LE(a.l1dMissRate, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Registry, ConfigSweep,
                         ::testing::Range<std::size_t>(0, 25));

// --- randomized cross-checks ----------------------------------------

class SeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SeedSweep, GeneratorDeterminismUnderRandomProfiles)
{
    Rng rng(GetParam());
    AppProfile p = AppProfile::testProfile();
    p.seed = rng.next();
    p.numEvents = 4 + rng.below(8);
    p.avgEventLen = 300 + rng.below(3000);
    p.numHandlerTypes = 2 + rng.below(30);
    p.windowsPerEvent = 1 + rng.below(8);
    p.hotRegionsPerHandler = 2 + rng.below(16);
    p.codeRegionPool = 64 + rng.below(1024);
    p.dependencyRate = rng.real() * 0.3;

    SyntheticGenerator gen(p);
    const auto a = gen.generate();
    const auto b = gen.generate();
    ASSERT_EQ(a->numEvents(), b->numEvents());
    ASSERT_EQ(a->totalInstructions(), b->totalInstructions());
    // And the full machine is deterministic on it.
    const SimResult ra = Simulator(SimConfig::espFull(true)).run(*a);
    const SimResult rb = Simulator(SimConfig::espFull(true)).run(*b);
    EXPECT_EQ(ra.cycles, rb.cycles);
}

TEST_P(SeedSweep, SpeculativeViewNeverIndexesOutOfRange)
{
    Rng rng(GetParam() ^ 0xabcdef);
    AppProfile p = AppProfile::testProfile();
    p.seed = rng.next();
    p.dependencyRate = 0.5;
    SyntheticGenerator gen(p);
    const auto w = gen.generate();
    for (std::size_t e = 0; e < w->numEvents(); ++e) {
        const EventTrace &ev = w->event(e);
        for (std::size_t i = 0; i < ev.speculativeSize(); ++i)
            (void)ev.speculativeOp(i); // panics on bad indexing
        ASSERT_GE(ev.speculativeMatchFraction(), 0.0);
        ASSERT_LE(ev.speculativeMatchFraction(), 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(11, 22, 33, 44, 55, 66));
