#include "cpu/ooo_core.hh"

#include <algorithm>

#include "common/logging.hh"
#include "cpu/pacer.hh"
#include "report/spans.hh"
#include "report/timeline.hh"

namespace espsim
{

const char *
cycleBucketName(CycleBucket bucket)
{
    switch (bucket) {
      case CycleBucket::Retiring: return "retiring";
      case CycleBucket::FrontendBubble: return "frontend_bubble";
      case CycleBucket::IcacheMiss: return "icache_miss";
      case CycleBucket::DcacheMiss: return "dcache_miss";
      case CycleBucket::LsqFull: return "lsq_full";
      case CycleBucket::MispredictRedirect: return "mispredict_redirect";
      case CycleBucket::Drain: return "drain";
      case CycleBucket::LooperOverhead: return "looper_overhead";
      case CycleBucket::EspPreExec: return "esp_pre_exec";
      case CycleBucket::Runahead: return "runahead";
      case CycleBucket::Idle: return "idle";
    }
    panic("cycleBucketName: bad bucket %u",
          static_cast<unsigned>(bucket));
}

OoOCore::OoOCore(const CoreConfig &config, MemoryHierarchy &mem,
                 PentiumMPredictor &bp, const PrefetcherConfig &prefetch,
                 CoreHooks &hooks)
    : config_(config), mem_(mem), bp_(bp), hooks_(hooks),
      prefetchCfg_(prefetch)
{
    // The pipeline queues are bounded by construction; size their
    // rings once here so the run loop never allocates.
    rob_.reset(config_.robSize);
    lsq_.reset(config_.lsqSize);
    specBucket_ = hooks_.engine() == SpecEngine::Runahead
        ? CycleBucket::Runahead
        : CycleBucket::EspPreExec;
}

void
OoOCore::charge(CycleBucket bucket, Cycle cycles)
{
    stats_.bucketCycles[static_cast<std::size_t>(bucket)] += cycles;
}

void
OoOCore::stallFor(CycleBucket bucket, Cycle cycles)
{
    // A miss stall first re-charges the portion of its shadow the
    // speculation engine reported consumed (data-miss shadows are
    // reported at detection but materialise later, at the ROB head /
    // LSQ / drain); a redirect takes none of it.
    Cycle spec = 0;
    if (bucket != CycleBucket::MispredictRedirect) {
        spec = std::min(pendingSpecCycles_, cycles);
        pendingSpecCycles_ -= spec;
        charge(specBucket_, spec);
    }
    charge(bucket, cycles - spec);
    if (timeline_)
        timeline_->recordStall(bucket, fetchCycle_, cycles);
    fetchCycle_ += cycles;
    slotInCycle_ = 0;
}

void
OoOCore::registerStats(StatRegistry &reg,
                       const std::string &prefix) const
{
    reg.registerScalar(prefix + "cycles", &stats_.cycles);
    reg.registerScalar(prefix + "instructions", &stats_.instructions);
    reg.registerScalar(prefix + "events", &stats_.events);
    reg.registerScalar(prefix + "branches", &stats_.branches);
    reg.registerScalar(prefix + "mispredicts", &stats_.mispredicts);
    reg.registerScalar(prefix + "btb_misses", &stats_.btbMisses);
    reg.registerScalar(prefix + "loads", &stats_.loads);
    reg.registerScalar(prefix + "stores", &stats_.stores);
    reg.registerScalar(prefix + "llc_misses_instr",
                       &stats_.llcMissesInstr);
    reg.registerScalar(prefix + "llc_misses_data",
                       &stats_.llcMissesData);
    reg.registerScalar(prefix + "stall_windows",
                       &stats_.stallWindows);
    reg.registerDerived(prefix + "stride.dropped_wraps", [this] {
        return static_cast<double>(strideData_.droppedWraps());
    });
    reg.registerDerived(prefix + "ipc",
                        [this] { return stats_.ipc(); });
    for (unsigned b = 0; b < numCycleBuckets; ++b) {
        reg.registerScalar(prefix + "cycle_bucket." +
                               cycleBucketName(static_cast<CycleBucket>(b)),
                           &stats_.bucketCycles[b]);
    }
}

void
OoOCore::advanceSlot(CycleBucket bucket)
{
    if (++slotInCycle_ >= config_.width) {
        slotInCycle_ = 0;
        ++fetchCycle_;
        charge(bucket, 1);
    }
}

void
OoOCore::retireForSpace()
{
    if (rob_.size() < config_.robSize)
        return;
    const RobEntry head = rob_.front();
    rob_.pop_front();
    const Cycle retire_at = std::max(head.complete, lastRetire_);
    lastRetire_ = retire_at;
    if (retire_at > fetchCycle_)
        stallFor(CycleBucket::DcacheMiss, retire_at - fetchCycle_);
}

inline void
OoOCore::processOp(const MicroOp &op)
{
    retireForSpace();

    // --- Fetch: access the I-cache on block transitions. ------------
    const Addr iblock = blockAlign(op.pc);
    if (iblock != curFetchBlock_) {
        curFetchBlock_ = iblock;
        const AccessResult fetch = mem_.accessInstr(op.pc, fetchCycle_);
        if (prefetchCfg_.nextLineInstr)
            nlInstr_.notifyAccess(mem_, op.pc, fetchCycle_);
        const Cycle l1_lat = mem_.config().l1i.hitLatency;
        const Cycle hidden = l1_lat + config_.fetchQueueHide;
        if (fetch.latency > hidden) {
            const Cycle bubble = fetch.latency - hidden;
            if (fetch.llcMiss())
                ++stats_.llcMissesInstr;
            if (bubble >= config_.stallReportThreshold) {
                ++stats_.stallWindows;
                StallContext ctx;
                ctx.now = fetchCycle_;
                ctx.idleCycles = bubble;
                ctx.kind = StallKind::InstrLlcMiss;
                ctx.triggerOpIdx = curOpIdx_;
                pendingSpecCycles_ +=
                    std::min(hooks_.onStall(ctx), bubble);
            }
            stallFor(CycleBucket::IcacheMiss, bubble);
        }
    }

    // Dependency-limited issue: a consumer of the immediately
    // preceding producer can't issue in the same slot, and loads add a
    // load-to-use slot — this keeps the no-stall IPC of real code
    // (~2-2.5) rather than the fetch-width bound.
    if ((op.srcA != noReg && op.srcA == lastDest_) ||
        (op.srcB != noReg && op.srcB == lastDest_)) {
        advanceSlot(CycleBucket::FrontendBubble);
        advanceSlot(CycleBucket::FrontendBubble);
        advanceSlot(CycleBucket::FrontendBubble);
    }
    if (op.isLoad()) {
        advanceSlot(CycleBucket::FrontendBubble);
        advanceSlot(CycleBucket::FrontendBubble);
    }
    lastDest_ = op.dest;

    const Cycle dispatch = fetchCycle_;
    Cycle complete = dispatch + config_.pipelineDepth;
    RobEntry entry;

    switch (op.type()) {
      case OpType::IntAlu:
        break;
      case OpType::FpAlu:
        complete += config_.fpExtraLatency;
        break;
      case OpType::Load:
      case OpType::Store: {
        // LSQ occupancy: wait for the oldest memory op to complete
        // when all 16 slots are busy. A long-latency LLC miss holding
        // the LSQ full is the same idle-window opportunity as one at
        // the head of the ROB, so it is reported to the stall engine.
        while (lsq_.size() >= config_.lsqSize) {
            const Cycle oldest = lsq_.front();
            lsq_.pop_front();
            if (oldest > fetchCycle_)
                stallFor(CycleBucket::LsqFull, oldest - fetchCycle_);
        }
        const bool is_store = op.isStore();
        const AccessResult res =
            mem_.accessData(op.memAddr, is_store, fetchCycle_);
        if (is_store) {
            ++stats_.stores;
            // Stores retire without waiting for the fill.
            complete = dispatch + config_.pipelineDepth;
        } else {
            ++stats_.loads;
            const Cycle l1_lat = mem_.config().l1d.hitLatency;
            complete = dispatch + config_.pipelineDepth + res.latency -
                l1_lat;
            if (res.llcMiss()) {
                ++stats_.llcMissesData;
                entry.llcMissLoad = true;
            }
            // The paper's ESP/runahead trigger: a long-latency miss
            // will block the ROB head for roughly its fill time; the
            // speculation engine gets that shadow as budget.
            const Cycle shadow =
                res.latency > l1_lat ? res.latency - l1_lat : 0;
            if (shadow >= config_.stallReportThreshold) {
                ++stats_.stallWindows;
                StallContext sctx;
                sctx.now = fetchCycle_;
                sctx.idleCycles = shadow;
                sctx.kind = StallKind::DataLlcMiss;
                sctx.triggerOpIdx = curOpIdx_;
                sctx.missDest = op.dest;
                pendingSpecCycles_ +=
                    std::min(hooks_.onStall(sctx), shadow);
            }
            if (prefetchCfg_.nextLineData)
                nlData_.notifyAccess(mem_, op.memAddr, fetchCycle_);
            if (prefetchCfg_.strideData) {
                strideData_.notifyAccess(mem_, op.pc, op.memAddr,
                                         fetchCycle_);
            }
        }
        // Only in-flight misses occupy modeled LSQ/MSHR slots; hits
        // complete within the pipeline and release immediately.
        if (res.latency > mem_.config().l1d.hitLatency)
            lsq_.push_back(complete);
        break;
      }
      case OpType::BranchCond:
      case OpType::BranchDirect:
      case OpType::BranchIndirect:
      case OpType::Call:
      case OpType::Return: {
        ++stats_.branches;
        if (!config_.perfectBranch) {
            const BranchResult res = bp_.executeBranch(op);
            // A branch dispatches at the fetch cycle (nothing before
            // it in this op moves the clock), so its redirect starts
            // there.
            if (res == BranchResult::Mispredict) {
                ++stats_.mispredicts;
                stallFor(CycleBucket::MispredictRedirect,
                         config_.mispredictPenalty);
            } else if (res == BranchResult::BtbMiss) {
                ++stats_.btbMisses;
                stallFor(CycleBucket::MispredictRedirect,
                         config_.btbMissPenalty);
            }
        }
        break;
      }
    }

    entry.complete = complete;
    rob_.push_back(entry);
    ++stats_.instructions;
    advanceSlot();
}

void
OoOCore::drainRob()
{
    Cycle last = fetchCycle_;
    bool miss_pending = false;
    for (std::size_t k = 0; k < rob_.size(); ++k) {
        const RobEntry &e = rob_.at(k);
        last = std::max(last, e.complete);
        if (e.llcMissLoad && e.complete > fetchCycle_)
            miss_pending = true;
    }
    // The drain just accounts remaining completion time; outstanding
    // misses were already reported to the engine at detection time.
    if (miss_pending && last > fetchCycle_)
        stallFor(CycleBucket::DcacheMiss, last - fetchCycle_);
    else if (last > fetchCycle_)
        charge(CycleBucket::Drain, last - fetchCycle_);
    rob_.clear();
    lsq_.clear();
    fetchCycle_ = std::max(fetchCycle_, last);
    slotInCycle_ = 0;
    lastRetire_ = std::max(lastRetire_, fetchCycle_);
}

void
OoOCore::executeLooperOverhead()
{
    // The looper thread's dequeue/bookkeeping instructions (§3.6):
    // hot code, no misses; they just advance time — and give ESP its
    // pre-event prefetch window.
    const Cycle gap =
        (config_.looperOverheadInstr + config_.width - 1) / config_.width;
    charge(CycleBucket::LooperOverhead, gap);
    fetchCycle_ += gap;
    slotInCycle_ = 0;
    stats_.instructions += config_.looperOverheadInstr;
}

void
OoOCore::run(const Workload &workload)
{
    std::array<PrefetchSourceStats, numPrefetchSources> pf_life_start{};
    for (std::size_t idx = 0; idx < workload.numEvents(); ++idx) {
        const CycleBucketArray buckets_at_start = stats_.bucketCycles;
        // Span window opens before any idle charge: the span's bucket
        // deltas cover every cycle the clock advances until retire,
        // so Σ span buckets == retire - span_start by construction.
        const Cycle span_start = fetchCycle_;
        if (!sinks_.empty()) {
            for (unsigned s = 0; s < numPrefetchSources; ++s) {
                pf_life_start[s] = mem_.prefetchLifecycle(
                    static_cast<PrefetchSource>(s));
            }
        }
        Cycle queued_at = fetchCycle_;
        if (pacer_) {
            queued_at = pacer_->eventArrival(idx, fetchCycle_);
            if (queued_at > fetchCycle_) {
                // The queue is empty until the event arrives: the
                // core idles, and those cycles get their own bucket
                // so Σ buckets == cycles still closes.
                charge(CycleBucket::Idle, queued_at - fetchCycle_);
                fetchCycle_ = queued_at;
                slotInCycle_ = 0;
            }
        }
        // The hook fires before the looper-gap instructions so the ESP
        // list prefetcher gets its ~70-instruction head start (§3.6).
        hooks_.onEventStart(idx, fetchCycle_);
        executeLooperOverhead();
        const Cycle dispatched_at = fetchCycle_;
        if (pacer_)
            pacer_->eventDispatched(idx, dispatched_at);
        const InstCount instr_at_dispatch = stats_.instructions;
        const EventTrace &event = workload.event(idx);
        if (pacer_)
            pacer_->eventHandlerType(idx, event.handlerType);
        curFetchBlock_ = ~Addr{0};
        // Rebuild ops by value from the packed records. The per-op
        // virtual hook runs only while the engine says it has work
        // left in this event: the core asks before the first op and
        // then every perOpRecheckOps ops, and once the answer is false
        // the rest of the event runs without the hook.
        const OpSequence &ops = event.ops;
        const std::size_t num_ops = ops.size();
        std::size_t i = 0;
        while (i < num_ops && hooks_.perOpActive()) {
            const std::size_t stop =
                std::min(num_ops, i + perOpRecheckOps);
            for (; i < stop; ++i) {
                curOpIdx_ = i;
                const MicroOp op = ops[i];
                hooks_.beforeOp(i, op, fetchCycle_);
                processOp(op);
            }
        }
        for (; i < num_ops; ++i) {
            curOpIdx_ = i;
            processOp(ops[i]);
        }
        drainRob();
        // A stall shadow never extends past the event-end drain; drop
        // any engine-consumed cycles whose stall never materialised so
        // they cannot leak attribution into the next event.
        pendingSpecCycles_ = 0;
        ++stats_.events;
        // Keep the cycles counter live at retire boundaries so a
        // mid-run counter snapshot (the telemetry stream) is consistent
        // with the rest of the stat surface.
        stats_.cycles = fetchCycle_;
        hooks_.onEventEnd(idx, fetchCycle_);

        // Per-event-type (handler) cycle attribution.
        CycleBucketArray delta{};
        for (unsigned b = 0; b < numCycleBuckets; ++b)
            delta[b] = stats_.bucketCycles[b] - buckets_at_start[b];
        HandlerAccounting &acct =
            stats_.handlerAccounting[event.handlerType];
        ++acct.events;
        for (unsigned b = 0; b < numCycleBuckets; ++b)
            acct.buckets[b] += delta[b];

        if (pacer_)
            pacer_->eventRetired(idx, fetchCycle_);
        if (!sinks_.empty()) {
            RequestSpan span;
            span.index = idx;
            span.handlerType = event.handlerType;
            span.startCycle = span_start;
            span.arrival = queued_at;
            span.dispatch = dispatched_at;
            span.retire = fetchCycle_;
            span.instructions = stats_.instructions - instr_at_dispatch;
            span.buckets = delta;
            for (unsigned s = 0; s < numPrefetchSources; ++s) {
                const PrefetchSourceStats end = mem_.prefetchLifecycle(
                    static_cast<PrefetchSource>(s));
                span.prefetch[s] = SpanPrefetchDelta{
                    end.issued - pf_life_start[s].issued,
                    end.timely - pf_life_start[s].timely,
                    end.late - pf_life_start[s].late,
                    end.harmful - pf_life_start[s].harmful};
            }
            for (SpanSink *sink : sinks_)
                sink->onSpan(span);
        }
    }
    stats_.cycles = fetchCycle_;
    if (stats_.bucketSum() != stats_.cycles) {
        panic("cycle-accounting invariant violated: buckets sum to "
              "%llu but the core ran %llu cycles",
              static_cast<unsigned long long>(stats_.bucketSum()),
              static_cast<unsigned long long>(stats_.cycles));
    }
}

} // namespace espsim
