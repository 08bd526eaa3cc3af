/**
 * @file
 * Trace-driven out-of-order core timing model.
 *
 * Configuration follows the paper's Figure 7 (a Samsung Exynos
 * 5250-class core): 4-wide, 96-entry ROB, 16-entry LSQ, 15-cycle
 * mispredict penalty, Pentium M branch predictor, next-line/stride
 * prefetchers.
 *
 * The model is the classic in-order-retire approximation of an OoO
 * pipeline: instructions are fetched at `width` per cycle (stalling on
 * I-cache misses and branch redirects), receive a completion time from
 * their latency class, and retire in order through a 96-entry window —
 * so independent long-latency loads naturally overlap (MLP), and a
 * load miss that reaches the head of the full ROB freezes fetch. That
 * freeze is the idle window ESP and runahead consume, delivered to an
 * attached CoreHooks engine via onStall().
 */

#ifndef ESPSIM_CPU_OOO_CORE_HH
#define ESPSIM_CPU_OOO_CORE_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "branch/pentium_m.hh"
#include "common/ring_buffer.hh"
#include "cache/hierarchy.hh"
#include "common/stats.hh"
#include "cpu/hooks.hh"
#include "prefetch/next_line.hh"
#include "prefetch/stride.hh"
#include "report/stat_registry.hh"
#include "trace/workload.hh"

namespace espsim
{

class EventPacer;
class EventTimeline;
class SpanSink;

/** Core pipeline parameters (defaults = paper Figure 7). */
struct CoreConfig
{
    unsigned width = 4;
    unsigned robSize = 96;
    unsigned lsqSize = 16;
    Cycle mispredictPenalty = 15;
    Cycle btbMissPenalty = 6;
    Cycle pipelineDepth = 8;  //!< fetch-to-complete for simple ops
    Cycle fpExtraLatency = 4;
    /** Idealise branch prediction (Figure 3 potential study). */
    bool perfectBranch = false;
    /** Extraneous looper-thread instructions between events (§3.6). */
    unsigned looperOverheadInstr = 70;
    /** Minimum idle window worth reporting to the stall engine. The
     *  paper triggers on LLC misses only; at our ~10x-scaled-down
     *  workload size, L2-hit shadows must also grant pre-execution
     *  budget to keep the budget-per-event-instruction ratio of the
     *  paper's machine (see DESIGN.md, substitution table). */
    Cycle stallReportThreshold = 18;
    /** I-miss latency hidden by the fetch queue / decoupled front end. */
    Cycle fetchQueueHide = 2;
};

/** Which baseline prefetchers are armed. */
struct PrefetcherConfig
{
    bool nextLineInstr = false;
    bool nextLineData = false;
    bool strideData = false;
};

/**
 * Top-down cycle-accounting buckets (paper Figures 4-5 taxonomy).
 *
 * Every cycle the core's clock advances is charged to **exactly one**
 * bucket at the moment it is spent, so `Σ buckets == total cycles`
 * holds by construction; OoOCore::run() fatals if the invariant is
 * ever violated. Stall shadows that an attached speculation engine
 * reported as consumed (the onStall() return value) are re-charged
 * from the stall bucket to EspPreExec / Runahead, making "how much of
 * the memory stall did speculation convert into useful pre-execution"
 * a first-class statistic.
 */
enum class CycleBucket : std::uint8_t
{
    Retiring = 0,       //!< issue slots retiring useful instructions
    FrontendBubble,     //!< dependency / load-to-use issue gaps
    IcacheMiss,         //!< fetch bubbles beyond the hidden L1 latency
    DcacheMiss,         //!< data-miss waits at the head of the ROB
    LsqFull,            //!< oldest memory op blocking a full LSQ
    MispredictRedirect, //!< mispredict flushes + BTB-miss refetches
    Drain,              //!< event-end pipeline drain (no miss pending)
    LooperOverhead,     //!< inter-event looper-thread instructions
    EspPreExec,         //!< stall shadow consumed by ESP pre-execution
    Runahead,           //!< stall shadow consumed by runahead
    Idle,               //!< empty event queue (paced/server runs only)
};

constexpr unsigned numCycleBuckets = 11;

/** Stable snake_case stat-name token for @p bucket. */
const char *cycleBucketName(CycleBucket bucket);

/** Per-bucket cycle totals; one accumulator, one per handler type. */
using CycleBucketArray = std::array<Cycle, numCycleBuckets>;

/** Accounting for one event-handler type (per-event-type breakdown). */
struct HandlerAccounting
{
    std::uint64_t events = 0;
    CycleBucketArray buckets{};

    Cycle
    cycles() const
    {
        Cycle sum = 0;
        for (const Cycle c : buckets)
            sum += c;
        return sum;
    }
};

/**
 * Flat sorted handlerType → HandlerAccounting table.
 *
 * Handler-type populations are small (a handful per workload), so a
 * sorted vector with binary search beats a node-based map on the
 * per-event accounting path and iterates in the same key order the
 * stat registration relies on.
 */
class HandlerAccountingTable
{
  public:
    using Entry = std::pair<std::uint32_t, HandlerAccounting>;

    /** Find-or-insert accounting for @p type. */
    HandlerAccounting &
    operator[](std::uint32_t type)
    {
        auto it = lowerBound(type);
        if (it == entries_.end() || it->first != type)
            it = entries_.insert(it, Entry{type, HandlerAccounting{}});
        return it->second;
    }

    /** Accounting for @p type; the caller guarantees presence. */
    const HandlerAccounting &
    at(std::uint32_t type) const
    {
        auto it = const_cast<HandlerAccountingTable *>(this)
                      ->lowerBound(type);
        return it->second;
    }

    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }
    std::vector<Entry>::const_iterator begin() const
    {
        return entries_.begin();
    }
    std::vector<Entry>::const_iterator end() const
    {
        return entries_.end();
    }

  private:
    std::vector<Entry>::iterator
    lowerBound(std::uint32_t type)
    {
        auto lo = entries_.begin();
        auto hi = entries_.end();
        while (lo != hi) {
            auto mid = lo + (hi - lo) / 2;
            if (mid->first < type)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

    std::vector<Entry> entries_;
};

/** Cycle/instruction counters the core accumulates over a run. */
struct CoreStats
{
    Cycle cycles = 0;
    InstCount instructions = 0;
    std::uint64_t events = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t btbMisses = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t llcMissesInstr = 0;
    std::uint64_t llcMissesData = 0;
    std::uint64_t stallWindows = 0; //!< onStall() deliveries

    /** Top-down attribution: where every cycle went (sums to cycles). */
    CycleBucketArray bucketCycles{};
    /** The same buckets broken down per event-handler type. */
    HandlerAccountingTable handlerAccounting;

    Cycle
    bucketSum() const
    {
        Cycle sum = 0;
        for (const Cycle c : bucketCycles)
            sum += c;
        return sum;
    }

    double
    ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(instructions) /
                static_cast<double>(cycles);
    }
};

/** The timing core. Owns no components; wires externally-owned ones. */
class OoOCore
{
  public:
    OoOCore(const CoreConfig &config, MemoryHierarchy &mem,
            PentiumMPredictor &bp, const PrefetcherConfig &prefetch,
            CoreHooks &hooks);

    /** Execute a whole workload (all events, in order). */
    void run(const Workload &workload);

    const CoreStats &stats() const { return stats_; }

    /** Register every core counter (and derived IPC) by name. */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

    /**
     * Attach an opt-in timeline for the intra-event stall slices
     * (nullptr detaches). Its per-event slices arrive as spans: add
     * the timeline as a span sink too.
     */
    void setTimeline(EventTimeline *timeline) { timeline_ = timeline; }

    /**
     * Attach an opt-in event pacer (nullptr detaches): arrivals gate
     * event dispatch, queue-empty time is charged to the Idle bucket,
     * and the pacer observes dispatch/retire timestamps (the serve
     * path's latency probe).
     */
    void setPacer(EventPacer *pacer) { pacer_ = pacer; }

    /**
     * Add a per-event observer. Each retired event delivers one
     * RequestSpan, after the pacer saw the retire, to every sink in
     * the order added. The span carries the event's cycle-bucket and
     * per-source prefetch lifecycle deltas and closes exactly against
     * the accounting invariant (Σ span buckets == the cycles the clock
     * advanced while the span was current). Event-retire boundaries
     * are the only points where the registered stat surface is
     * consistent mid-run, so counter samplers are sinks too. See
     * report/spans.hh.
     */
    void addSpanSink(SpanSink *sink) { sinks_.push_back(sink); }

    /** Current-fetch-cycle accessor for hooks/tests. */
    Cycle now() const { return fetchCycle_; }

  private:
    struct RobEntry
    {
        Cycle complete = 0;
        bool llcMissLoad = false;
    };

    const CoreConfig config_;
    MemoryHierarchy &mem_;
    PentiumMPredictor &bp_;
    CoreHooks &hooks_;

    NextLineInstrPrefetcher nlInstr_;
    DcuPrefetcher nlData_;
    StridePrefetcher strideData_;
    PrefetcherConfig prefetchCfg_;

    CoreStats stats_;
    EventTimeline *timeline_ = nullptr;
    EventPacer *pacer_ = nullptr;
    std::vector<SpanSink *> sinks_;

    // Pipeline state.
    Cycle fetchCycle_ = 0;
    unsigned slotInCycle_ = 0;
    Addr curFetchBlock_ = ~Addr{0};

    FixedRing<RobEntry> rob_;
    FixedRing<Cycle> lsq_; //!< completion cycle of each in-flight miss
    Cycle lastRetire_ = 0;
    std::size_t curOpIdx_ = 0;
    std::uint8_t lastDest_ = noReg; //!< dependency-issue modeling

    /** Accounting bucket for consumed stall shadow (engine kind). */
    CycleBucket specBucket_ = CycleBucket::EspPreExec;
    /** Shadow cycles the engine reported consumed but whose stall has
     *  not yet materialised (data-miss shadows surface later, at the
     *  ROB head / LSQ / drain). */
    Cycle pendingSpecCycles_ = 0;

    void charge(CycleBucket bucket, Cycle cycles);
    /**
     * Stall fetch for @p cycles: charge them (on a miss bucket the
     * engine-consumed portion goes to the speculation bucket, the
     * remainder to @p bucket), report the stall to the timeline and
     * advance the fetch clock. The one place a stall is recorded.
     */
    void stallFor(CycleBucket bucket, Cycle cycles);
    /** Issue one op. Defined in ooo_core.cc and forced inline into
     *  both op loops of run(), its only caller: left to itself, GCC
     *  keeps it an out-of-line call per op (docs/PERFORMANCE.md,
     *  "Header-inlined hot paths"). */
    [[gnu::always_inline]] inline void processOp(const MicroOp &op);
    void retireForSpace();
    void drainRob();
    void advanceSlot(CycleBucket bucket = CycleBucket::Retiring);
    void executeLooperOverhead();
};

} // namespace espsim

#endif // ESPSIM_CPU_OOO_CORE_HH
