#include "cpu/runahead.hh"

#include <algorithm>

namespace espsim
{

RunaheadEngine::RunaheadEngine(const RunaheadConfig &config,
                               MemoryHierarchy &mem,
                               PentiumMPredictor &bp,
                               const Workload &workload,
                               unsigned core_width)
    : config_(config), mem_(mem), bp_(bp), workload_(workload),
      width_(core_width)
{
}

void
RunaheadEngine::onEventStart(std::size_t event_idx, Cycle now)
{
    (void)now;
    curEventIdx_ = event_idx;
    coveredOpIdx_ = 0;
}

Cycle
RunaheadEngine::onStall(const StallContext &ctx)
{
    // Runahead is only entered on *data* LLC misses; an instruction
    // miss leaves nothing to pre-execute.
    if (ctx.kind != StallKind::DataLlcMiss)
        return 0;
    if (curEventIdx_ >= workload_.numEvents())
        return 0;

    const EventTrace &ev = workload_.event(curEventIdx_);
    // Resume past ground already covered by an earlier, overlapping
    // episode; runahead re-execution of those ops is architecturally
    // idempotent (blocks warm, counters saturated).
    std::size_t pos = std::max(ctx.triggerOpIdx, coveredOpIdx_);
    if (pos >= ev.ops.size())
        return 0;
    ++stats_.entries;
    std::uint64_t budget_q =
        static_cast<std::uint64_t>(ctx.idleCycles) * width_;
    std::uint64_t spent = 0;

    // Registers poisoned by the missing load (INV bits).
    std::uint32_t invalid = 0;
    if (ctx.missDest != noReg && ctx.missDest < numArchRegs)
        invalid |= 1u << ctx.missDest;

    // Runahead state is architecturally discarded on exit; checkpoint
    // the branch context (tables keep their training — that is the
    // point of the full-runahead variant).
    const BpContext saved_ctx = bp_.context();

    mem_.setStatCounting(false);
    Addr cur_block = ~Addr{0};

    while (pos < ev.ops.size() && spent < budget_q) {
        const MicroOp &op = ev.ops[pos];
        spent += 1;

        // Instruction fetch along the runahead path.
        const Addr iblk = blockAlign(op.pc);
        if (iblk != cur_block) {
            cur_block = iblk;
            if (config_.warmInstr) {
                const AccessResult res = mem_.accessInstr(op.pc, ctx.now);
                if (res.llcMiss()) {
                    // Runahead cannot jump over an I-cache LLC miss.
                    ++stats_.stoppedOnInstrMiss;
                    break;
                }
                const Cycle l1_lat = mem_.config().l1i.hitLatency;
                if (res.latency > l1_lat)
                    spent += (res.latency - l1_lat) * width_;
            } else if (mem_.probeInstr(op.pc).llcMiss()) {
                ++stats_.stoppedOnInstrMiss;
                break;
            }
        }

        const bool src_valid =
            (op.srcA == noReg || !(invalid & (1u << (op.srcA % 32)))) &&
            (op.srcB == noReg || !(invalid & (1u << (op.srcB % 32))));

        if (op.isBranchOp()) {
            if (!src_valid && op.type() == OpType::BranchCond) {
                // Outcome unknown: runahead follows the predicted path;
                // if that disagrees with the real path, it has diverged
                // and everything further is wrong-path.
                const BranchPrediction pred = bp_.predictOnly(op);
                if (pred.taken != op.taken()) {
                    ++stats_.stoppedOnWrongPath;
                    break;
                }
            }
            if (config_.trainBranchPredictor) {
                const BranchResult res = bp_.executeBranch(op, false);
                if (res == BranchResult::Mispredict)
                    spent += config_.mispredictPenalty * width_;
            }
        } else if (op.isMemoryOp()) {
            if (op.isLoad()) {
                if (src_valid && config_.warmData) {
                    const AccessResult res =
                        mem_.accessData(op.memAddr, false, ctx.now);
                    const Cycle l1_lat = mem_.config().l1d.hitLatency;
                    if (res.latency > l1_lat)
                        spent += (res.latency - l1_lat) * width_ / 4;
                }
                if (op.dest != noReg) {
                    if (src_valid)
                        invalid &= ~(1u << (op.dest % 32));
                    else
                        invalid |= 1u << (op.dest % 32);
                }
                if (!src_valid)
                    ++stats_.invalidOps;
            }
            // Stores are dropped in runahead mode (no memory update).
        } else if (op.dest != noReg) {
            // ALU ops propagate INV bits through the register file.
            if (src_valid)
                invalid &= ~(1u << (op.dest % 32));
            else
                invalid |= 1u << (op.dest % 32);
            if (!src_valid)
                ++stats_.invalidOps;
        }

        ++stats_.instructions;
        ++pos;
    }

    mem_.setStatCounting(true);
    // Architectural runahead state is squashed; restore the context.
    bp_.swapContext(saved_ctx);
    coveredOpIdx_ = std::max(coveredOpIdx_, pos);
    // Report the consumed shadow so the core's cycle attributor can
    // move it from the stall bucket into the runahead bucket.
    return std::min<Cycle>(spent / width_, ctx.idleCycles);
}

void
RunaheadEngine::registerStats(StatRegistry &reg,
                              const std::string &prefix) const
{
    reg.registerScalar(prefix + "entries", &stats_.entries);
    reg.registerScalar(prefix + "instructions", &stats_.instructions);
    reg.registerScalar(prefix + "stopped_on_instr_miss",
                       &stats_.stoppedOnInstrMiss);
    reg.registerScalar(prefix + "stopped_on_wrong_path",
                       &stats_.stoppedOnWrongPath);
    reg.registerScalar(prefix + "invalid_ops", &stats_.invalidOps);
}

} // namespace espsim
