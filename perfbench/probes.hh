/**
 * @file
 * Outside-in probes for the traced benchmark run.
 *
 * Each probe is a decorator around one layer's public interface
 * (CoreHooks, EventPacer, EventSource): it forwards every call
 * unchanged and records call counts and host time into a LayerTimes
 * record. The simulator never sees anything but the interface it
 * already takes, so the traced run's simulated statistics equal the
 * untraced run's exactly — the benchmark checks that they do.
 *
 * The cache and branch layers have no seam inside the core, so they
 * are measured by replaying the workload's committed op stream
 * through MemoryHierarchy and PentiumMPredictor alone (replayEvent).
 */

#ifndef ESPSIM_PERFBENCH_PROBES_HH
#define ESPSIM_PERFBENCH_PROBES_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "branch/pentium_m.hh"
#include "cache/hierarchy.hh"
#include "cpu/hooks.hh"
#include "cpu/pacer.hh"
#include "workload/streaming.hh"

namespace perfbench
{

using espsim::Cycle;

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One in this many beforeOp() calls is timed; the rest are counted. */
constexpr std::uint64_t beforeOpSamplePeriod = 64;

/**
 * Host cost of one nowNs() pair with nothing between (median of many).
 * Each timed region has this subtracted, so probes around calls of a
 * few nanoseconds (beforeOp) do not report the clock's own cost.
 */
inline std::int64_t
clockPairNs()
{
    std::vector<std::int64_t> d(4001);
    for (std::int64_t &x : d) {
        const std::int64_t t0 = nowNs();
        x = nowNs() - t0;
    }
    std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
    return d[d.size() / 2];
}

/**
 * Host time and call counts the probes collect over a traced run.
 * Hook times exclude the makeEvent() calls nested inside them, which
 * are charged to the workload layer instead.
 */
struct LayerTimes
{
    const std::int64_t clockNs = clockPairNs();

    std::int64_t boundaryNs = 0; //!< onEventStart + onEventEnd
    std::int64_t onStallNs = 0;
    std::uint64_t onStallCalls = 0;
    std::uint64_t beforeOpCalls = 0;
    std::uint64_t beforeOpTimedCalls = 0;
    std::int64_t beforeOpTimedNs = 0;

    std::int64_t pacerNs = 0;
    std::uint64_t pacerCalls = 0;

    std::int64_t makeEventNs = 0;
    std::uint64_t makeEventCalls = 0;
    std::uint64_t madeInstrs = 0;

    // Phases of the traced run itself (see tracedRun in perfbench.cc).
    std::int64_t warmupNs = 0;
    std::int64_t runNs = 0;   //!< OoOCore::run, inclusive
    std::int64_t statsNs = 0; //!< registration + snapshot

    /** Host microseconds from each event's start hook to its end hook. */
    std::vector<double> eventHostUs;

    /** beforeOp() host time, scaled up from the timed sample. */
    double
    beforeOpNs() const
    {
        return beforeOpTimedCalls == 0
            ? 0.0
            : static_cast<double>(beforeOpTimedNs) *
                static_cast<double>(beforeOpCalls) /
                static_cast<double>(beforeOpTimedCalls);
    }

    /** Time spent in the hooks themselves. */
    double
    hooksNs() const
    {
        return static_cast<double>(boundaryNs + onStallNs) + beforeOpNs();
    }
};

/** CoreHooks decorator timing every hook of the wrapped engine. */
class TimedHooks final : public espsim::CoreHooks
{
  public:
    TimedHooks(espsim::CoreHooks &inner, LayerTimes &times)
        : inner_(inner), times_(times)
    {
    }

    void
    onEventStart(std::size_t event_idx, Cycle now) override
    {
        const Span span = open();
        inner_.onEventStart(event_idx, now);
        times_.boundaryNs += close(span);
        eventStartNs_ = span.startNs;
    }

    void
    onEventEnd(std::size_t event_idx, Cycle now) override
    {
        const Span span = open();
        inner_.onEventEnd(event_idx, now);
        times_.boundaryNs += close(span);
        times_.eventHostUs.push_back(
            static_cast<double>(nowNs() - eventStartNs_) / 1e3);
    }

    bool perOpActive() const override { return inner_.perOpActive(); }

    void
    beforeOp(std::size_t op_idx, const espsim::MicroOp &op,
             Cycle now) override
    {
        // Reading the clock on every call would double the cost of the
        // hook being measured; count every call, time a sample.
        if (++times_.beforeOpCalls % beforeOpSamplePeriod != 0) {
            inner_.beforeOp(op_idx, op, now);
            return;
        }
        const Span span = open();
        inner_.beforeOp(op_idx, op, now);
        times_.beforeOpTimedNs += close(span);
        ++times_.beforeOpTimedCalls;
    }

    Cycle
    onStall(const espsim::StallContext &ctx) override
    {
        const Span span = open();
        const Cycle used = inner_.onStall(ctx);
        times_.onStallNs += close(span);
        ++times_.onStallCalls;
        return used;
    }

    espsim::SpecEngine engine() const override { return inner_.engine(); }

  private:
    struct Span
    {
        std::int64_t startNs;
        std::int64_t makeEventNs; //!< LayerTimes::makeEventNs at open
    };

    espsim::CoreHooks &inner_;
    LayerTimes &times_;
    std::int64_t eventStartNs_ = 0;

    Span open() const { return {nowNs(), times_.makeEventNs}; }

    /** Elapsed time less the clock's cost and nested makeEvent(). */
    std::int64_t
    close(const Span &span) const
    {
        return nowNs() - span.startNs - times_.clockNs -
            (times_.makeEventNs - span.makeEventNs);
    }
};

/** EventPacer decorator timing every call into the wrapped pacer. */
class TimedPacer final : public espsim::EventPacer
{
  public:
    TimedPacer(espsim::EventPacer &inner, LayerTimes &times)
        : inner_(inner), times_(times)
    {
    }

    Cycle
    eventArrival(std::size_t idx, Cycle now) override
    {
        const std::int64_t t0 = nowNs();
        const Cycle at = inner_.eventArrival(idx, now);
        charge(t0);
        return at;
    }

    void
    eventDispatched(std::size_t idx, Cycle now) override
    {
        const std::int64_t t0 = nowNs();
        inner_.eventDispatched(idx, now);
        charge(t0);
    }

    void
    eventRetired(std::size_t idx, Cycle now) override
    {
        const std::int64_t t0 = nowNs();
        inner_.eventRetired(idx, now);
        charge(t0);
    }

    void
    eventHandlerType(std::size_t idx, std::uint32_t handler_type) override
    {
        const std::int64_t t0 = nowNs();
        inner_.eventHandlerType(idx, handler_type);
        charge(t0);
    }

  private:
    espsim::EventPacer &inner_;
    LayerTimes &times_;

    void
    charge(std::int64_t t0)
    {
        times_.pacerNs += nowNs() - t0 - times_.clockNs;
        ++times_.pacerCalls;
    }
};

/**
 * A fixed kernel that gauges how fast the shared host runs code like
 * the simulator's: an 8-way LRU tag lookup and a 2-bit gshare update
 * per step, over a mixed sequential and random address stream. It
 * shares no code with the simulator, so a change to the simulator
 * leaves its timing alone, while contention from other tenants of the
 * machine slows both together.
 */
class HostProbe
{
  public:
    /** Steps in one timing, about 10 ms on an idle host. */
    static constexpr std::size_t steps = 200'000;

    HostProbe() { run(); } // fault the tables in

    /** Time one batch of steps; returns nanoseconds per step. */
    double
    run()
    {
        const std::int64_t t0 = nowNs();
        for (std::size_t i = 0; i < steps; ++i)
            step();
        return static_cast<double>(nowNs() - t0 - clockNs_) /
            static_cast<double>(steps);
    }

  private:
    static constexpr std::size_t sets = 8192, ways = 8;
    const std::int64_t clockNs_ = clockPairNs();
    std::vector<std::uint64_t> tags_ =
        std::vector<std::uint64_t>(sets * ways, ~std::uint64_t{0});
    std::vector<std::uint8_t> age_ = std::vector<std::uint8_t>(sets * ways);
    std::vector<std::uint8_t> counters_ =
        std::vector<std::uint8_t>(std::size_t{1} << 16, 1);
    std::uint64_t x_ = 88172645463325252ULL, pc_ = 0, history_ = 0;
    std::uint64_t misses_ = 0, mispredicts_ = 0;

    void
    step()
    {
        x_ ^= x_ << 13;
        x_ ^= x_ >> 7;
        x_ ^= x_ << 17;
        pc_ = (x_ & 7) ? pc_ + 64 : x_ >> 20;
        const std::uint64_t addr = (x_ & 3) ? pc_ : (x_ >> 8) & 0x3ffffff;
        const std::uint64_t block = addr >> 6, set = block & (sets - 1);
        std::uint64_t *tag = &tags_[set * ways];
        std::uint8_t *age = &age_[set * ways];
        std::size_t way = ways;
        for (std::size_t w = 0; w < ways; ++w) {
            if (tag[w] == block) {
                way = w;
                break;
            }
        }
        if (way == ways) {
            ++misses_;
            way = std::max_element(age, age + ways) - age;
            tag[way] = block;
        }
        for (std::size_t w = 0; w < ways; ++w)
            age[w] += age[w] < 255;
        age[way] = 0;

        const bool taken = (block ^ (block >> 3)) & 1;
        std::uint8_t &c = counters_[((pc_ >> 2) ^ history_) & 0xffff];
        if ((c >= 2) != taken)
            ++mispredicts_;
        c = taken ? (c < 3 ? c + 1 : 3) : (c > 0 ? c - 1 : 0);
        history_ = ((history_ << 1) | taken) & 0xffff;
    }
};

/** EventSource decorator timing every makeEvent() of the wrapped source. */
class TimedSource final : public espsim::EventSource
{
  public:
    TimedSource(std::unique_ptr<const espsim::EventSource> inner,
                LayerTimes &times)
        : inner_(std::move(inner)), times_(times)
    {
    }

    const std::string &name() const override { return inner_->name(); }
    std::size_t numEvents() const override { return inner_->numEvents(); }
    std::vector<espsim::AddrRange> warmSet() const override
    {
        return inner_->warmSet();
    }

    espsim::EventTrace
    makeEvent(std::uint64_t id) const override
    {
        const std::int64_t t0 = nowNs();
        espsim::EventTrace trace = inner_->makeEvent(id);
        times_.makeEventNs += nowNs() - t0 - times_.clockNs;
        ++times_.makeEventCalls;
        times_.madeInstrs += trace.size();
        return trace;
    }

  private:
    std::unique_ptr<const espsim::EventSource> inner_;
    LayerTimes &times_;
};

/** Host time of the standalone cache and branch replays. */
struct ReplayTotals
{
    std::int64_t cacheNs = 0;
    std::uint64_t accesses = 0;
    std::int64_t branchNs = 0;
    std::uint64_t branches = 0;
};

/**
 * Replay one event's committed ops through @p mem (an I-side access
 * per fetch-block transition, a D-side access per load or store, as
 * the core issues them) and then through @p bp (every branch op).
 * @p now advances one cycle per op.
 */
inline void
replayEvent(const espsim::EventTrace &event, espsim::MemoryHierarchy &mem,
            espsim::PentiumMPredictor &bp, Cycle &now, ReplayTotals &out)
{
    const espsim::OpSequence &ops = event.ops;
    const std::size_t n = ops.size();

    std::int64_t t0 = nowNs();
    espsim::Addr fetch_block = ~espsim::Addr{0};
    Cycle cycle = now;
    for (std::size_t i = 0; i < n; ++i, ++cycle) {
        const espsim::MicroOp op = ops[i];
        const espsim::Addr block = espsim::blockAlign(op.pc);
        if (block != fetch_block) {
            fetch_block = block;
            mem.accessInstr(op.pc, cycle);
            ++out.accesses;
        }
        if (op.isMemoryOp()) {
            mem.accessData(op.memAddr, op.isStore(), cycle);
            ++out.accesses;
        }
    }
    out.cacheNs += nowNs() - t0;
    now = cycle;

    t0 = nowNs();
    for (std::size_t i = 0; i < n; ++i) {
        const espsim::MicroOp op = ops[i];
        if (op.isBranchOp()) {
            bp.executeBranch(op);
            ++out.branches;
        }
    }
    out.branchNs += nowNs() - t0;
}

} // namespace perfbench

#endif // ESPSIM_PERFBENCH_PROBES_HH
