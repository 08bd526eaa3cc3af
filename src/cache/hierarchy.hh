/**
 * @file
 * The memory hierarchy of the baseline core (paper Figure 7):
 * split 32 KB 2-way L1-I / L1-D, unified 2 MB 16-way L2 (the LLC),
 * and DRAM at a flat 101-cycle access latency.
 *
 * Demand accesses walk L1 → L2 → memory and fill inclusively.
 * Prefetches insert immediately and record their completion time in an
 * in-flight buffer so late prefetches pay residual latency; one bit per
 * L1 way says whether the block there may have such an entry, so an
 * L1 hit probes the buffer only when it might find one. Probe
 * methods report where a block lives without disturbing state — the
 * ESP cachelet fill path uses them, because ESP-mode accesses bypass
 * the L1/L2 entirely (§3.4).
 */

#ifndef ESPSIM_CACHE_HIERARCHY_HH
#define ESPSIM_CACHE_HIERARCHY_HH

#include <cstdint>
#include <vector>

#include "cache/cache.hh"
#include "common/stats.hh"
#include "prefetch/inflight.hh"
#include "report/stat_registry.hh"

namespace espsim
{

/** Level that serviced an access. */
enum class HitLevel : std::uint8_t
{
    L1,     //!< first-level hit
    L2,     //!< L1 miss, L2 hit
    Memory, //!< LLC miss (this is what triggers ESP / runahead)
};

/** Outcome of a demand access or probe. */
struct AccessResult
{
    Cycle latency = 0;
    HitLevel level = HitLevel::L1;

    bool llcMiss() const { return level == HitLevel::Memory; }
};

/** Configuration of the hierarchy. */
struct HierarchyConfig
{
    CacheGeometry l1i{"L1-I", 32 * 1024, 2, 2};
    CacheGeometry l1d{"L1-D", 32 * 1024, 2, 2};
    CacheGeometry l2{"L2", 2 * 1024 * 1024, 16, 21};
    Cycle memLatency = 101;

    /** Idealisation switches for the Figure 3 potential study. */
    bool perfectL1I = false;
    bool perfectL1D = false;
};

/** Two-level cache hierarchy plus DRAM with prefetch support. */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const HierarchyConfig &config);

    const HierarchyConfig &config() const { return config_; }

    /** Demand instruction fetch of the block containing @p addr. */
    AccessResult
    accessInstr(Addr addr, Cycle now)
    {
        if (config_.perfectL1I) {
            if (countStats_)
                ++instr_.accesses;
            return {config_.l1i.hitLatency, HitLevel::L1};
        }
        return accessSide(instr_, addr, false, now);
    }

    /** Demand data access (@p write marks the block dirty). */
    AccessResult
    accessData(Addr addr, bool write, Cycle now)
    {
        if (config_.perfectL1D) {
            if (countStats_)
                ++data_.accesses;
            return {config_.l1d.hitLatency, HitLevel::L1};
        }
        return accessSide(data_, addr, write, now);
    }

    /**
     * Where would the block come from right now? No state change; used
     * by ESP cachelet fills and by prefetch-issue latency estimation.
     */
    AccessResult
    probeInstr(Addr addr) const
    {
        if (config_.perfectL1I)
            return {config_.l1i.hitLatency, HitLevel::L1};
        return probeSide(instr_.l1, addr);
    }

    AccessResult
    probeData(Addr addr) const
    {
        if (config_.perfectL1D)
            return {config_.l1d.hitLatency, HitLevel::L1};
        return probeSide(data_.l1, addr);
    }

    /**
     * Issue a prefetch of the block containing @p addr into the
     * instruction (or data) side. Fills L1 and L2 immediately and
     * tracks readiness; a no-op when already resident or in flight.
     * @p source tags the prefetch for lifecycle classification
     * (timely / late / useless / harmful, per issuing engine).
     * @return true if a prefetch was actually issued.
     */
    bool
    prefetchInstr(Addr addr, Cycle now,
                  PrefetchSource source = PrefetchSource::Other)
    {
        if (config_.perfectL1I)
            return false;
        return prefetchSide(instr_, addr, now, source);
    }

    bool
    prefetchData(Addr addr, Cycle now,
                 PrefetchSource source = PrefetchSource::Other)
    {
        if (config_.perfectL1D)
            return false;
        return prefetchSide(data_, addr, now, source);
    }

    /**
     * Install the block containing @p addr in the L2 and the L1-I (or
     * L1-D) now: no prefetch, no timing, no lifecycle scoring. The
     * ideal-ESP list replay fills through these.
     */
    void installInstr(Addr addr) { installSide(instr_, addr); }
    void installData(Addr addr) { installSide(data_, addr); }

    /** Read-only views of the L1s (the fuzz oracle checks them). */
    const SetAssocCache &l1i() const { return instr_.l1; }
    const SetAssocCache &l1d() const { return data_.l1; }

    /** The LLC, open for warm-up fills. */
    SetAssocCache &l2() { return l2_; }

    /**
     * Gate demand statistics; speculative pre-executions that go
     * through the regular hierarchy (naive ESP, runahead) disable
     * counting so reported miss rates reflect normal execution only.
     */
    void setStatCounting(bool enable) { countStats_ = enable; }

    // --- statistics -----------------------------------------------
    std::uint64_t l1iAccesses() const { return instr_.accesses; }
    std::uint64_t l1iMisses() const { return instr_.misses; }
    std::uint64_t l1dAccesses() const { return data_.accesses; }
    std::uint64_t l1dMisses() const { return data_.misses; }
    std::uint64_t l2Misses() const { return stat_l2_miss_; }
    std::uint64_t prefetchesIssued() const { return stat_pf_issued_; }
    std::uint64_t latePrefetchHits() const { return stat_pf_late_; }

    /** Per-source lifecycle stats, instruction + data side summed. */
    PrefetchSourceStats prefetchLifecycle(PrefetchSource source) const;

    /** Per-source lifecycle stats of the instruction (@p instr) or
     *  the data side alone. */
    const PrefetchSourceStats &
    prefetchLifecycle(PrefetchSource source, bool instr) const
    {
        return (instr ? instr_ : data_).lifecycle.stats(source);
    }

    /** End of run: score still-unused prefetched blocks as useless.
     *  Call once, before snapshotting the registry. */
    void finalizePrefetchLifecycles();

    /** Register every hierarchy counter by name (canonical surface). */
    void registerStats(StatRegistry &reg,
                       const std::string &prefix) const;

  private:
    /** One L1 side (instruction or data) with its prefetch state. */
    struct Side
    {
        explicit Side(const CacheGeometry &geometry)
            : l1(geometry), lifecycle(l1.numWays()),
              mayBeInflight(l1.numWays(), 0)
        {
        }

        SetAssocCache l1;
        InflightPrefetchBuffer inflight;
        PrefetchLifecycleTracker lifecycle;
        /**
         * One flag per L1 way: the block there may have an entry in
         * `inflight`. The rule is one-way: a block with an entry always
         * sits in a flagged way, but a flag may outlive its entry (the
         * FIFO retired it), which costs only one probe. Every L1 fill
         * sets its way's flag, so an L1 hit probes the buffer only in
         * a flagged way.
         */
        std::vector<std::uint8_t> mayBeInflight;
        std::uint64_t accesses = 0;
        std::uint64_t misses = 0;
    };

    HierarchyConfig config_;
    bool countStats_ = true;
    // Declaration order is allocation order. Keep the L2's tag array
    // ahead of the sides' arrays: as the last block on the heap,
    // freeing it returned it to the OS, so every fresh hierarchy (one
    // per serve pass) faulted it back in.
    SetAssocCache l2_;
    Side instr_;
    Side data_;

    std::uint64_t stat_l2_miss_ = 0;
    std::uint64_t stat_pf_issued_ = 0;
    std::uint64_t stat_pf_late_ = 0;

    /** The demand path proper; inline so the whole L1→L2→memory walk
     *  (including inflight-buffer consume and lifecycle scoring)
     *  compiles into the caller's loop. Each level's set is scanned
     *  once: a miss fills from the way its lookup found wanting. */
    AccessResult
    accessSide(Side &side, Addr addr, bool write, Cycle now)
    {
        if (countStats_)
            ++side.accesses;
        SetAssocCache &l1 = side.l1;
        const Cycle l1_lat = l1.geometry().hitLatency;

        if (const auto way = l1.lookup(addr);
            way != SetAssocCache::noWay) {
            if (countStats_)
                side.lifecycle.onDemandAccess(way, now);
            if (write)
                l1.markDirty(way);
            if (!side.mayBeInflight[way])
                return {l1_lat, HitLevel::L1};
            side.mayBeInflight[way] = 0;
            const auto ready = side.inflight.consume(blockAlign(addr));
            if (ready && *ready > now) {
                // Prefetched block still being filled: pay the
                // residue.
                if (countStats_) {
                    ++side.misses;
                    ++stat_pf_late_;
                }
                return {*ready - now + l1_lat, HitLevel::L2};
            }
            return {l1_lat, HitLevel::L1};
        }

        if (countStats_)
            ++side.misses;
        // A block evicted from the L1 while in flight still holds its
        // entry; the demand fill supersedes it.
        side.inflight.consume(blockAlign(addr));
        AccessResult res{l1_lat + l2_.geometry().hitLatency, HitLevel::L2};
        if (l2_.lookup(addr) == SetAssocCache::noWay) {
            if (countStats_)
                ++stat_l2_miss_;
            l2_.fillAbsent(addr);
            res = {res.latency + config_.memLatency, HitLevel::Memory};
        }
        const SetAssocCache::Fill fill = l1.fillAbsent(addr, write);
        side.mayBeInflight[fill.way] = 0;
        if (countStats_)
            side.lifecycle.onDemandFill(fill.way, blockAlign(addr),
                                        fill.displaced);
        else
            side.lifecycle.onUncountedFill(fill.way, blockAlign(addr),
                                           fill.displaced);
        return res;
    }

    AccessResult
    probeSide(const SetAssocCache &l1, Addr addr) const
    {
        const Cycle l1_lat = l1.geometry().hitLatency;
        const Cycle l2_lat = l2_.geometry().hitLatency;
        if (l1.contains(addr))
            return {l1_lat, HitLevel::L1};
        if (l2_.contains(addr))
            return {l1_lat + l2_lat, HitLevel::L2};
        return {l1_lat + l2_lat + config_.memLatency, HitLevel::Memory};
    }

    bool
    prefetchSide(Side &side, Addr addr, Cycle now, PrefetchSource source)
    {
        SetAssocCache &l1 = side.l1;
        if (l1.contains(addr) || side.inflight.contains(blockAlign(addr)))
            return false;
        // Fill now (so capacity pressure and pollution are modeled)
        // and remember when the fill actually lands. The L2 probe that
        // prices the fill also places it.
        Cycle latency = l1.geometry().hitLatency + l2_.geometry().hitLatency;
        if (const auto way = l2_.find(addr); way != SetAssocCache::noWay) {
            l2_.touch(way);
        } else {
            latency += config_.memLatency;
            l2_.fillAbsent(addr);
        }
        const SetAssocCache::Fill fill = l1.fillAbsent(addr);
        const Cycle ready = now + latency;
        side.inflight.issue(blockAlign(addr), ready);
        side.mayBeInflight[fill.way] = 1;
        side.lifecycle.onPrefetchFill(fill.way, blockAlign(addr), source,
                                      ready, fill.displaced);
        ++stat_pf_issued_;
        return true;
    }

    void
    installSide(Side &side, Addr addr)
    {
        l2_.insert(addr);
        if (const SetAssocCache::Fill fill = side.l1.insert(addr);
            fill.way != SetAssocCache::noWay) {
            // The block may return while a prefetch of it, issued
            // before an eviction, is still in flight.
            side.mayBeInflight[fill.way] =
                side.inflight.contains(blockAlign(addr));
            side.lifecycle.onUncountedFill(fill.way, blockAlign(addr),
                                           fill.displaced);
        }
    }
};

} // namespace espsim

#endif // ESPSIM_CACHE_HIERARCHY_HH
