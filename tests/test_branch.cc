/**
 * @file
 * Unit tests for the Pentium M branch predictor stack: PIR folding,
 * loop predictor, local/global direction prediction, BTB/iBTB targets,
 * RAS, context switching, B-list-style pre-training, and the
 * speculative-execution rules (stat gating, loop-predictor gating).
 */

#include <gtest/gtest.h>

#include "branch/loop_predictor.hh"
#include "branch/pentium_m.hh"
#include "branch/pir.hh"

using namespace espsim;

namespace
{

MicroOp
condBranch(Addr pc, bool taken, Addr target = 0)
{
    MicroOp op;
    op.pc = pc;
    op.setType(OpType::BranchCond);
    op.setTaken(taken);
    op.setBranchTarget(taken ? (target ? target : pc + 64) : 0);
    return op;
}

MicroOp
callOp(Addr pc, Addr target)
{
    MicroOp op;
    op.pc = pc;
    op.setType(OpType::Call);
    op.setTaken(true);
    op.setBranchTarget(target);
    return op;
}

MicroOp
returnOp(Addr pc, Addr target)
{
    MicroOp op;
    op.pc = pc;
    op.setType(OpType::Return);
    op.setTaken(true);
    op.setBranchTarget(target);
    return op;
}

MicroOp
indirectOp(Addr pc, Addr target)
{
    MicroOp op;
    op.pc = pc;
    op.setType(OpType::BranchIndirect);
    op.setTaken(true);
    op.setBranchTarget(target);
    return op;
}

} // namespace

TEST(Pir, UpdateChangesValueWithinMask)
{
    Pir pir;
    EXPECT_EQ(pir.value(), 0u);
    pir.update(0x1000, 0x2000);
    EXPECT_LE(pir.value(), Pir::mask);
    const auto v1 = pir.value();
    pir.update(0x3000, 0x4000);
    EXPECT_NE(pir.value(), v1);
    pir.reset();
    EXPECT_EQ(pir.value(), 0u);
}

TEST(Pir, PathDependent)
{
    Pir a, b;
    a.update(0x1000, 0x2000);
    a.update(0x3000, 0x4000);
    b.update(0x3000, 0x4000);
    b.update(0x1000, 0x2000);
    EXPECT_NE(a.value(), b.value());
}

TEST(Pir, ConvergesAfterSamePathSuffix)
{
    // After enough shared taken branches, histories converge (the
    // register only holds ~8 branches of path) — this is what makes
    // B-list training align with normal-mode lookups.
    Pir a, b;
    a.update(0x9999, 0x8888); // different prefix
    for (int i = 0; i < 12; ++i) {
        a.update(0x1000 + 16 * i, 0x2000 + 16 * i);
        b.update(0x1000 + 16 * i, 0x2000 + 16 * i);
    }
    EXPECT_EQ(a.value(), b.value());
}

TEST(LoopPred, LearnsConstantTripCount)
{
    LoopPredictor lp(256);
    const Addr pc = 0x1000;
    // Trip count 4: T T T N, repeated.
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 3; ++i)
            lp.update(pc, true);
        lp.update(pc, false);
    }
    // Now confident: predicts T, T, T, then N.
    for (int i = 0; i < 3; ++i) {
        auto p = lp.predict(pc);
        ASSERT_TRUE(p.has_value());
        EXPECT_TRUE(*p);
        lp.update(pc, true);
    }
    auto exit_pred = lp.predict(pc);
    ASSERT_TRUE(exit_pred.has_value());
    EXPECT_FALSE(*exit_pred);
}

TEST(LoopPred, NoConfidenceNoPrediction)
{
    LoopPredictor lp(256);
    lp.update(0x1000, true);
    EXPECT_FALSE(lp.predict(0x1000).has_value());
}

TEST(LoopPred, ChangingTripCountResetsConfidence)
{
    LoopPredictor lp(256);
    const Addr pc = 0x2000;
    auto run = [&](int trips) {
        for (int i = 0; i < trips - 1; ++i)
            lp.update(pc, true);
        lp.update(pc, false);
    };
    run(4);
    run(4);
    run(4);
    run(4);
    EXPECT_TRUE(lp.predict(pc).has_value());
    run(7); // trip change
    EXPECT_FALSE(lp.predict(pc).has_value());
}

TEST(Predictor, LearnsBiasedBranch)
{
    PentiumMPredictor bp;
    const MicroOp t = condBranch(0x1000, true);
    // Warm up.
    for (int i = 0; i < 8; ++i)
        bp.executeBranch(t);
    bp.clearStats();
    for (int i = 0; i < 100; ++i)
        bp.executeBranch(t);
    EXPECT_EQ(bp.mispredicts(), 0u);
    EXPECT_EQ(bp.branches(), 100u);
}

TEST(Predictor, ColdTakenBranchMispredicts)
{
    PentiumMPredictor bp;
    // Local counters initialise weakly-not-taken; a first-seen taken
    // branch is a mispredict.
    EXPECT_EQ(bp.executeBranch(condBranch(0x5000, true)),
              BranchResult::Mispredict);
}

TEST(Predictor, BtbMissIsNotAFullMispredict)
{
    PentiumMPredictor bp;
    const Addr pc = 0x1000;
    // Train direction taken but with target A; then change target.
    for (int i = 0; i < 8; ++i)
        bp.executeBranch(condBranch(pc, true, 0x2000));
    const BranchResult r = bp.executeBranch(condBranch(pc, true, 0x3000));
    EXPECT_EQ(r, BranchResult::BtbMiss);
}

TEST(Predictor, RasPredictsReturns)
{
    PentiumMPredictor bp;
    bp.executeBranch(callOp(0x1000, 0x8000));
    bp.clearStats();
    const BranchResult r = bp.executeBranch(returnOp(0x8010, 0x1004));
    EXPECT_EQ(r, BranchResult::Correct);
}

TEST(Predictor, RasMispredictsAfterClear)
{
    PentiumMPredictor bp;
    bp.executeBranch(callOp(0x1000, 0x8000));
    bp.clearRas();
    EXPECT_EQ(bp.executeBranch(returnOp(0x8010, 0x1004)),
              BranchResult::Mispredict);
}

TEST(Predictor, NestedCallsReturnInOrder)
{
    PentiumMPredictor bp;
    bp.executeBranch(callOp(0x1000, 0x2000));
    bp.executeBranch(callOp(0x2000, 0x3000));
    EXPECT_EQ(bp.executeBranch(returnOp(0x3010, 0x2004)),
              BranchResult::Correct);
    EXPECT_EQ(bp.executeBranch(returnOp(0x2010, 0x1004)),
              BranchResult::Correct);
}

TEST(Predictor, IndirectTargetLearnedPerPath)
{
    PentiumMPredictor bp;
    const Addr pc = 0x4000;
    // First encounter mispredicts; afterwards the iBTB knows it.
    EXPECT_EQ(bp.executeBranch(indirectOp(pc, 0x9000)),
              BranchResult::Mispredict);
    EXPECT_EQ(bp.executeBranch(indirectOp(pc, 0x9000)),
              BranchResult::Correct);
}

TEST(Predictor, StatGatingForSpeculativeBranches)
{
    PentiumMPredictor bp;
    bp.executeBranch(condBranch(0x1000, true), false);
    EXPECT_EQ(bp.branches(), 0u);
    EXPECT_EQ(bp.mispredicts(), 0u);
}

TEST(Predictor, SpeculativeExecutionSkipsLoopPredictor)
{
    PentiumMPredictor bp;
    const Addr pc = 0x6000;
    auto loop_round = [&](bool spec) {
        for (int i = 0; i < 3; ++i)
            bp.executeBranch(condBranch(pc, true), !spec);
        bp.executeBranch(condBranch(pc, false), !spec);
    };
    // Train architecturally until confident.
    for (int i = 0; i < 4; ++i)
        loop_round(false);
    // A speculative pass over the same loop must not advance the trip
    // counter (otherwise the architectural re-execution mispredicts).
    loop_round(true);
    bp.clearStats();
    loop_round(false);
    EXPECT_EQ(bp.mispredicts(), 0u);
}

TEST(Predictor, ContextSwapIsolatesPirAndRas)
{
    PentiumMPredictor bp;
    bp.executeBranch(callOp(0x1000, 0x8000)); // push onto RAS
    const auto pir_before = bp.context().pir.value();

    BpContext spec; // fresh context for pre-execution
    BpContext saved = bp.swapContext(std::move(spec));
    EXPECT_EQ(bp.context().pir.value(), 0u);
    EXPECT_TRUE(bp.context().ras.empty());
    bp.executeBranch(condBranch(0x2000, true), false);

    bp.swapContext(std::move(saved));
    EXPECT_EQ(bp.context().pir.value(), pir_before);
    ASSERT_EQ(bp.context().ras.size(), 1u);
    EXPECT_EQ(bp.context().ras.back(), 0x1004u);
}

TEST(Predictor, TrainingImprovesColdAccuracy)
{
    // Pre-train 64 distinct taken branches via the B-list path, then
    // execute them: the predictor must do much better than cold.
    PentiumMPredictor cold, trained;
    BpContext train_ctx;
    for (int i = 0; i < 64; ++i) {
        const Addr pc = 0x10000 + 256 * i;
        trained.train(train_ctx, pc, OpType::BranchCond, true, pc + 64);
    }
    int cold_miss = 0, trained_miss = 0;
    for (int i = 0; i < 64; ++i) {
        const Addr pc = 0x10000 + 256 * i;
        cold_miss += cold.executeBranch(condBranch(pc, true)) ==
            BranchResult::Mispredict;
        trained_miss += trained.executeBranch(condBranch(pc, true)) ==
            BranchResult::Mispredict;
    }
    EXPECT_EQ(cold_miss, 64);
    EXPECT_LT(trained_miss, 8);
}

TEST(Predictor, CloneAndCopyTables)
{
    PentiumMPredictor a;
    for (int i = 0; i < 8; ++i)
        a.executeBranch(condBranch(0x1000, true));
    PentiumMPredictor replica = a.clone();
    // Train the replica on a new branch.
    for (int i = 0; i < 8; ++i)
        replica.executeBranch(condBranch(0x2000, true), false);
    PentiumMPredictor b;
    b.copyTablesFrom(replica);
    b.clearStats();
    EXPECT_EQ(b.executeBranch(condBranch(0x2000, true)),
              BranchResult::Correct);
}

TEST(Predictor, MispredictRateAccessor)
{
    PentiumMPredictor bp;
    bp.executeBranch(condBranch(0x7000, true));  // cold: mispredict
    bp.executeBranch(condBranch(0x7000, false)); // counter now weak
    EXPECT_GT(bp.mispredictRate(), 0.0);
    EXPECT_LE(bp.mispredictRate(), 1.0);
}

TEST(PredictorDeathTest, NonBranchOpPanics)
{
    PentiumMPredictor bp;
    MicroOp op;
    op.setType(OpType::IntAlu);
    EXPECT_DEATH(bp.executeBranch(op), "non-branch");
}

TEST(PredictorDeathTest, EmptyLoopTableFatals)
{
    BranchPredictorConfig cfg;
    cfg.loopEntries = 0;
    EXPECT_DEATH(PentiumMPredictor{cfg}, "tables must be non-empty");
}

TEST(PredictorDeathTest, EmptyReturnStackFatals)
{
    BranchPredictorConfig cfg;
    cfg.rasDepth = 0;
    EXPECT_DEATH(PentiumMPredictor{cfg}, "return stack");
}
