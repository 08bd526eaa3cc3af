#include "branch/pentium_m.hh"

#include "common/logging.hh"

namespace espsim
{

PentiumMPredictor::PentiumMPredictor(const BranchPredictorConfig &config)
    : config_(config), global_(config.globalEntries),
      local_(config.localEntries, 1), btb_(config.btbEntries),
      ibtb_(config.ibtbEntries), loop_(config.loopEntries)
{
    if (config_.globalEntries == 0 || config_.localEntries == 0 ||
        config_.btbEntries == 0 || config_.ibtbEntries == 0 ||
        config_.loopEntries == 0) {
        fatal("branch predictor tables must be non-empty");
    }
    if (config_.rasDepth == 0)
        fatal("branch predictor return stack must hold an entry");
}

void
PentiumMPredictor::train(BpContext &train_ctx, Addr pc, OpType type,
                         bool taken, Addr target)
{
    MicroOp op;
    op.pc = pc;
    op.setType(type);
    op.setTaken(taken);
    op.setBranchTarget(taken ? target : 0);

    if (type == OpType::BranchCond) {
        const bool would_predict = predictDirection(train_ctx, pc);
        updateDirection(train_ctx, pc, taken, would_predict != taken,
                        false);
    }
    updateTargets(train_ctx, op);
}

BpContext
PentiumMPredictor::swapContext(BpContext ctx)
{
    BpContext old = std::move(ctx_);
    ctx_ = std::move(ctx);
    return old;
}

void
PentiumMPredictor::copyTablesFrom(const PentiumMPredictor &other)
{
    global_ = other.global_;
    local_ = other.local_;
    btb_ = other.btb_;
    ibtb_ = other.ibtb_;
    loop_ = other.loop_;
}

void
PentiumMPredictor::registerStats(StatRegistry &reg,
                                 const std::string &prefix) const
{
    reg.registerScalar(prefix + "branches", &stat_branches_);
    reg.registerScalar(prefix + "mispredicts", &stat_mispredicts_);
    reg.registerScalar(prefix + "btb_misses", &stat_btb_miss_);
    reg.registerDerived(prefix + "mispredict_rate",
                        [this] { return mispredictRate(); });
}

} // namespace espsim
