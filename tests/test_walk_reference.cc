/**
 * @file
 * Differential test of the memory walk against an obviously-correct
 * twin built from std containers.
 *
 * MemoryHierarchy keeps dense tag arrays, fills from the way its own
 * lookup found, and keeps the prefetch lifecycle in one record per L1
 * way with an orphan table for uncounted evictions. The twin below
 * keeps an LRU list per set, an in-flight FIFO as a deque plus a map,
 * and the lifecycle as block-keyed tables: a map of live prefetches
 * and a set of demand-live blocks. Random streams drive both in
 * lockstep, on a tiny geometry (so sets conflict constantly) and on
 * the shipped one, and every outcome and counter must agree after
 * every step and after the end-of-run finalize.
 */

#include <gtest/gtest.h>

#include <deque>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/rng.hh"

using namespace espsim;

namespace
{

/** LRU set-associative cache as one MRU-first list per set. */
class RefCache
{
  public:
    explicit RefCache(const CacheGeometry &g)
        : assoc_(g.assoc), sets_(g.numSets())
    {
    }

    /** Demand lookup: a hit becomes MRU. */
    bool
    lookup(Addr addr)
    {
        auto &set = setOf(addr);
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->block == blockAlign(addr)) {
                set.splice(set.begin(), set, it);
                return true;
            }
        }
        return false;
    }

    bool
    contains(Addr addr) const
    {
        for (const Line &line : sets_[setIndex(addr)]) {
            if (line.block == blockAlign(addr))
                return true;
        }
        return false;
    }

    /** Fill (or refresh) @p addr's block; @return the block evicted. */
    std::optional<Addr>
    insert(Addr addr, bool dirty = false)
    {
        auto &set = setOf(addr);
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->block == blockAlign(addr)) {
                it->dirty = it->dirty || dirty;
                set.splice(set.begin(), set, it);
                return std::nullopt;
            }
        }
        std::optional<Addr> evicted;
        if (set.size() == assoc_) {
            evicted = set.back().block;
            set.pop_back();
        }
        set.push_front({blockAlign(addr), dirty});
        return evicted;
    }

    void
    markDirty(Addr addr)
    {
        for (Line &line : setOf(addr)) {
            if (line.block == blockAlign(addr))
                line.dirty = true;
        }
    }

    std::size_t
    population() const
    {
        std::size_t n = 0;
        for (const auto &set : sets_)
            n += set.size();
        return n;
    }

    std::size_t
    dirtyPopulation() const
    {
        std::size_t n = 0;
        for (const auto &set : sets_) {
            for (const Line &line : set)
                n += line.dirty ? 1 : 0;
        }
        return n;
    }

  private:
    struct Line
    {
        Addr block;
        bool dirty;
    };

    std::size_t
    setIndex(Addr addr) const
    {
        return static_cast<std::size_t>(blockNumber(addr)) % sets_.size();
    }

    std::list<Line> &setOf(Addr addr) { return sets_[setIndex(addr)]; }

    std::size_t assoc_;
    std::vector<std::list<Line>> sets_;
};

/** In-flight prefetches: FIFO of issue order plus block -> ready. */
class RefInflight
{
  public:
    explicit RefInflight(std::size_t capacity) : capacity_(capacity) {}

    bool
    issue(Addr block, Cycle ready)
    {
        if (ready_.count(block))
            return false;
        // Consumed blocks leave stale FIFO slots; retiring one erases
        // whatever the map holds for that block.
        while (ready_.size() >= capacity_ && !fifo_.empty()) {
            ready_.erase(fifo_.front());
            fifo_.pop_front();
        }
        ready_[block] = ready;
        fifo_.push_back(block);
        return true;
    }

    std::optional<Cycle>
    consume(Addr block)
    {
        auto it = ready_.find(block);
        if (it == ready_.end())
            return std::nullopt;
        const Cycle when = it->second;
        ready_.erase(it);
        return when;
    }

    bool contains(Addr block) const { return ready_.count(block) != 0; }

  private:
    std::size_t capacity_;
    std::deque<Addr> fifo_;
    std::map<Addr, Cycle> ready_;
};

/** The block-keyed lifecycle rules: live prefetches and demand-live
 *  blocks, keyed by block address. */
class RefLifecycle
{
  public:
    void
    onPrefetchIssue(Addr block, PrefetchSource source, Cycle ready,
                    std::optional<Addr> evicted)
    {
        if (evicted)
            onEviction(*evicted, source);
        ++stats_[index(source)].issued;
        live_[block] = Live{source, ready, false};
    }

    void
    onDemandAccess(Addr block, Cycle now)
    {
        auto it = live_.find(block);
        if (it != live_.end() && !it->second.used) {
            it->second.used = true;
            PrefetchSourceStats &s = stats_[index(it->second.source)];
            if (now >= it->second.ready) {
                ++s.timely;
                s.leadCycleSum += now - it->second.ready;
            } else {
                ++s.late;
            }
        }
        demandLive_.insert(block);
    }

    void
    onDemandFill(Addr block, std::optional<Addr> evicted)
    {
        if (evicted)
            onEviction(*evicted, std::nullopt);
        demandLive_.insert(block);
        live_.erase(block);
    }

    void
    finalize()
    {
        for (const auto &[block, live] : live_) {
            if (!live.used)
                ++stats_[index(live.source)].useless;
        }
        live_.clear();
        demandLive_.clear();
    }

    const PrefetchSourceStats &
    stats(PrefetchSource source) const
    {
        return stats_[index(source)];
    }

  private:
    struct Live
    {
        PrefetchSource source;
        Cycle ready;
        bool used;
    };

    static std::size_t
    index(PrefetchSource source)
    {
        return static_cast<std::size_t>(source);
    }

    void
    onEviction(Addr block, std::optional<PrefetchSource> byPrefetch)
    {
        auto it = live_.find(block);
        if (it != live_.end()) {
            if (!it->second.used)
                ++stats_[index(it->second.source)].useless;
            else if (byPrefetch)
                ++stats_[index(*byPrefetch)].harmful;
            live_.erase(it);
            demandLive_.erase(block);
            return;
        }
        if (demandLive_.erase(block) && byPrefetch)
            ++stats_[index(*byPrefetch)].harmful;
    }

    PrefetchSourceStats stats_[numPrefetchSources] = {};
    std::map<Addr, Live> live_;
    std::set<Addr> demandLive_;
};

/** The whole walk: L1-I, L1-D, L2 and DRAM, with prefetch tracking. */
class RefHierarchy
{
  public:
    /** One cache side (instruction or data). */
    struct Side
    {
        Side(const CacheGeometry &g, std::size_t inflight_capacity)
            : l1(g), lat(g.hitLatency), inflight(inflight_capacity)
        {
        }

        RefCache l1;
        Cycle lat;
        RefInflight inflight;
        RefLifecycle lifecycle;
        std::uint64_t accesses = 0;
        std::uint64_t misses = 0;
    };

    RefHierarchy(const HierarchyConfig &c, std::size_t inflight_capacity)
        : instr(c.l1i, inflight_capacity), data(c.l1d, inflight_capacity),
          l2_(c.l2), l2Lat_(c.l2.hitLatency), memLat_(c.memLatency)
    {
    }

    AccessResult
    access(Side &side, Addr addr, bool write, Cycle now)
    {
        if (counting)
            ++side.accesses;
        const Addr block = blockAlign(addr);
        const auto ready = side.inflight.consume(block);
        if (side.l1.lookup(addr)) {
            if (counting)
                side.lifecycle.onDemandAccess(block, now);
            if (write)
                side.l1.markDirty(addr);
            if (ready && *ready > now) {
                if (counting) {
                    ++side.misses;
                    ++late;
                }
                return {*ready - now + side.lat, HitLevel::L2};
            }
            return {side.lat, HitLevel::L1};
        }
        if (counting)
            ++side.misses;
        AccessResult res{side.lat + l2Lat_, HitLevel::L2};
        if (!l2_.lookup(addr)) {
            if (counting)
                ++l2Misses;
            l2_.insert(addr);
            res = {side.lat + l2Lat_ + memLat_, HitLevel::Memory};
        }
        const auto evicted = side.l1.insert(addr, write);
        if (counting)
            side.lifecycle.onDemandFill(block, evicted);
        return res;
    }

    AccessResult
    probe(const Side &side, Addr addr) const
    {
        if (side.l1.contains(addr))
            return {side.lat, HitLevel::L1};
        if (l2_.contains(addr))
            return {side.lat + l2Lat_, HitLevel::L2};
        return {side.lat + l2Lat_ + memLat_, HitLevel::Memory};
    }

    bool
    prefetch(Side &side, Addr addr, Cycle now, PrefetchSource source)
    {
        const Addr block = blockAlign(addr);
        if (side.l1.contains(addr) || side.inflight.contains(block))
            return false;
        const Cycle ready = now + probe(side, addr).latency;
        l2_.insert(addr);
        const auto evicted = side.l1.insert(addr);
        side.inflight.issue(block, ready);
        side.lifecycle.onPrefetchIssue(block, source, ready, evicted);
        ++issued;
        return true;
    }

    void
    install(Side &side, Addr addr)
    {
        l2_.insert(addr);
        side.l1.insert(addr);
    }

    const RefCache &l2() const { return l2_; }

    Side instr;
    Side data;
    bool counting = true;
    std::uint64_t l2Misses = 0;
    std::uint64_t issued = 0;
    std::uint64_t late = 0;

  private:
    RefCache l2_;
    Cycle l2Lat_;
    Cycle memLat_;
};

/** L1s of 2 sets x 2 ways and an L2 of 4 sets x 2 ways. */
HierarchyConfig
tinyConfig()
{
    HierarchyConfig c;
    c.l1i = {"L1-I", 4 * blockBytes, 2, 2};
    c.l1d = {"L1-D", 4 * blockBytes, 2, 3};
    c.l2 = {"L2", 8 * blockBytes, 2, 21};
    c.memLatency = 101;
    return c;
}

/** The buffer capacity MemoryHierarchy gives each side. */
constexpr std::size_t inflightCapacity = 64;

/** Every counter and per-side lifecycle stat must agree. */
void
expectSameCounters(MemoryHierarchy &mem, const RefHierarchy &ref,
                   std::uint64_t step)
{
    ASSERT_EQ(mem.l1iAccesses(), ref.instr.accesses) << "step " << step;
    ASSERT_EQ(mem.l1iMisses(), ref.instr.misses) << "step " << step;
    ASSERT_EQ(mem.l1dAccesses(), ref.data.accesses) << "step " << step;
    ASSERT_EQ(mem.l1dMisses(), ref.data.misses) << "step " << step;
    ASSERT_EQ(mem.l2Misses(), ref.l2Misses) << "step " << step;
    ASSERT_EQ(mem.prefetchesIssued(), ref.issued) << "step " << step;
    ASSERT_EQ(mem.latePrefetchHits(), ref.late) << "step " << step;
    ASSERT_EQ(mem.l1i().population(), ref.instr.l1.population())
        << "step " << step;
    ASSERT_EQ(mem.l1d().population(), ref.data.l1.population())
        << "step " << step;
    ASSERT_EQ(mem.l1d().dirtyPopulation(),
              ref.data.l1.dirtyPopulation()) << "step " << step;
    ASSERT_EQ(mem.l2().population(), ref.l2().population())
        << "step " << step;
    for (unsigned s = 0; s < numPrefetchSources; ++s) {
        const auto source = static_cast<PrefetchSource>(s);
        for (const bool instr : {true, false}) {
            const PrefetchSourceStats &got =
                mem.prefetchLifecycle(source, instr);
            const PrefetchSourceStats &want =
                (instr ? ref.instr : ref.data).lifecycle.stats(source);
            const char *side = instr ? "instr" : "data";
            ASSERT_EQ(got.issued, want.issued)
                << prefetchSourceName(source) << " " << side << " step "
                << step;
            ASSERT_EQ(got.timely, want.timely)
                << prefetchSourceName(source) << " " << side << " step "
                << step;
            ASSERT_EQ(got.late, want.late)
                << prefetchSourceName(source) << " " << side << " step "
                << step;
            ASSERT_EQ(got.useless, want.useless)
                << prefetchSourceName(source) << " " << side << " step "
                << step;
            ASSERT_EQ(got.harmful, want.harmful)
                << prefetchSourceName(source) << " " << side << " step "
                << step;
            ASSERT_EQ(got.leadCycleSum, want.leadCycleSum)
                << prefetchSourceName(source) << " " << side << " step "
                << step;
        }
    }
}

/** Where a stream's addresses come from: a hot corner of
 *  @p hotBlocks blocks drawn 60% of the time, else a pool of
 *  @p poolBlocks blocks. */
struct AddressPool
{
    std::uint64_t hotBlocks;
    std::uint64_t poolBlocks;
};

/**
 * Drive both models with one random stream. Addresses come from a
 * pool far larger than the L1s (so the in-flight FIFO fills and
 * evicts) with a hot corner that keeps L1 hits and returning blocks
 * frequent. Counting switches off for stretches, as naive ESP and
 * runahead do. Adds the run's lifecycle outcomes, summed over sources,
 * to @p total so the caller can check that the streams reach each one.
 */
void
runStream(const HierarchyConfig &config, AddressPool pool,
          std::uint64_t seed, std::uint64_t steps,
          PrefetchSourceStats &total)
{
    MemoryHierarchy mem(config);
    RefHierarchy ref(config, inflightCapacity);
    Rng rng(seed);
    Cycle now = 0;

    const auto pickAddr = [&rng, pool] {
        const Addr block = rng.chance(0.6) ? rng.below(pool.hotBlocks)
                                           : rng.below(pool.poolBlocks);
        const Addr offset = rng.chance(0.5) ? 0 : rng.below(blockBytes);
        return 0x10000 + block * blockBytes + offset;
    };

    for (std::uint64_t step = 0; step < steps; ++step) {
        now += rng.below(40);
        if (rng.chance(0.02)) {
            const bool counting = !ref.counting;
            mem.setStatCounting(counting);
            ref.counting = counting;
        }
        const bool instr = rng.chance(0.5);
        RefHierarchy::Side &side = instr ? ref.instr : ref.data;
        const Addr addr = pickAddr();
        const std::uint64_t kind = rng.below(10);
        if (kind < 5) {
            const bool write = !instr && rng.chance(0.3);
            const AccessResult got = instr
                ? mem.accessInstr(addr, now)
                : mem.accessData(addr, write, now);
            const AccessResult want = ref.access(side, addr, write, now);
            ASSERT_EQ(got.latency, want.latency) << "step " << step;
            ASSERT_EQ(got.level, want.level) << "step " << step;
        } else if (kind < 9) {
            const auto source = static_cast<PrefetchSource>(
                rng.below(numPrefetchSources));
            const bool got = instr ? mem.prefetchInstr(addr, now, source)
                                   : mem.prefetchData(addr, now, source);
            ASSERT_EQ(got, ref.prefetch(side, addr, now, source))
                << "step " << step;
        } else {
            if (instr)
                mem.installInstr(addr);
            else
                mem.installData(addr);
            ref.install(side, addr);
        }
        const Addr probe_addr = pickAddr();
        const AccessResult got = instr ? mem.probeInstr(probe_addr)
                                       : mem.probeData(probe_addr);
        ASSERT_EQ(got.level, ref.probe(side, probe_addr).level)
            << "step " << step;
        expectSameCounters(mem, ref, step);
        if (::testing::Test::HasFatalFailure())
            return;
    }

    mem.finalizePrefetchLifecycles();
    ref.instr.lifecycle.finalize();
    ref.data.lifecycle.finalize();
    expectSameCounters(mem, ref, steps);

    for (unsigned s = 0; s < numPrefetchSources; ++s) {
        const PrefetchSourceStats st =
            mem.prefetchLifecycle(static_cast<PrefetchSource>(s));
        total.timely += st.timely;
        total.late += st.late;
        total.useless += st.useless;
        total.harmful += st.harmful;
    }
}

} // namespace

TEST(WalkReference, RandomStreamsMatchTheStdContainerTwin)
{
    PrefetchSourceStats total;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE(seed);
        runStream(tinyConfig(), {12, 160}, seed, 4000, total);
        if (HasFatalFailure())
            return;
    }
    // The streams must reach every lifecycle outcome.
    EXPECT_GT(total.timely, 0u);
    EXPECT_GT(total.late, 0u);
    EXPECT_GT(total.useless, 0u);
    EXPECT_GT(total.harmful, 0u);
}

TEST(WalkReference, ShippedGeometryMatchesTheStdContainerTwin)
{
    // 32 KB 2-way L1s (512 blocks each) and the 2 MB L2: a pool four
    // times an L1 keeps its sets conflicting.
    PrefetchSourceStats total;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(seed);
        runStream(HierarchyConfig{}, {48, 2048}, seed, 4000, total);
        if (HasFatalFailure())
            return;
    }
    // The streams must reach every lifecycle outcome.
    EXPECT_GT(total.timely, 0u);
    EXPECT_GT(total.late, 0u);
    EXPECT_GT(total.useless, 0u);
    EXPECT_GT(total.harmful, 0u);
}
