/**
 * @file
 * Bounded tracker of outstanding prefetches (an MSHR-like structure).
 *
 * A prefetch issued at cycle C for a block that lives at level L
 * becomes usable at C + latency(L). The block is inserted into the
 * target cache immediately (so pollution is modeled), and the ready
 * time is recorded here; a demand access that arrives before the ready
 * time pays the residual latency ("late prefetch").
 *
 * The buffer sits on the per-demand-access path, so it uses an
 * open-addressed block-keyed table (common/addr_map.hh) and an
 * intrusive ring for the FIFO instead of node-based containers: no
 * hashing-library heap nodes, no steady-state allocation. The
 * lifecycle tracker keeps its state per L1 way and needs no table on
 * a counted run.
 */

#ifndef ESPSIM_PREFETCH_INFLIGHT_HH
#define ESPSIM_PREFETCH_INFLIGHT_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/addr_map.hh"
#include "common/types.hh"

namespace espsim
{

/** Who issued a prefetch (lifecycle attribution). */
enum class PrefetchSource : std::uint8_t
{
    EspIList = 0,  //!< ESP instruction-address list replay
    EspDList,      //!< ESP data-address list replay
    NextLineInstr, //!< next-line instruction prefetcher
    NextLineData,  //!< DCU next-line data prefetcher
    StrideData,    //!< IP-stride data prefetcher
    Other,         //!< untagged (tests, direct calls)
};

constexpr unsigned numPrefetchSources = 6;

/** Stable snake_case stat-name token for @p source. */
const char *prefetchSourceName(PrefetchSource source);

/**
 * Lifecycle outcome counters for one prefetch source.
 *
 * Taxonomy (MERE-style): a prefetch is *timely* when the demand access
 * arrives at or after its fill lands, *late* when demand arrives while
 * it is still in flight (the residue is paid), *useless* when it is
 * evicted — or the run ends — without ever being demanded, and
 * *harmful* when its fill displaced a live demand block (pollution).
 */
struct PrefetchSourceStats
{
    std::uint64_t issued = 0;
    std::uint64_t timely = 0;
    std::uint64_t late = 0;
    std::uint64_t useless = 0;
    std::uint64_t harmful = 0;
    Cycle leadCycleSum = 0; //!< Σ (demand − ready) over timely uses

    std::uint64_t used() const { return timely + late; }

    /** Fraction of issued prefetches that were demanded at all. */
    double
    accuracy() const
    {
        return issued == 0 ? 0.0
                           : static_cast<double>(used()) /
                static_cast<double>(issued);
    }

    /** Mean cycles a timely prefetch landed ahead of its demand. */
    double
    avgLeadCycles() const
    {
        return timely == 0 ? 0.0
                           : static_cast<double>(leadCycleSum) /
                static_cast<double>(timely);
    }
};

/**
 * Classifies every prefetch of one cache side (instruction or data)
 * as timely / late / useless / harmful, per source.
 *
 * The state lives in one small record per L1 way, indexed by the way
 * the cache reports, so a demand hit probes no table. The
 * MemoryHierarchy drives it from four places: prefetch fill (with the
 * L1 victim the fill displaced), demand access, demand fill (with its
 * victim), and fills it does not score. Unused prefetched blocks are
 * scored useless at eviction or at finalize(); a prefetch fill that
 * displaces a demand-live block scores harmful for the *issuing*
 * source.
 *
 * Orphans: an uncounted fill (naive ESP and runahead pre-execution
 * run with stat counting off, and the ideal-ESP list replay fills
 * directly) evicts without scoring. The displaced block keeps its
 * record in orphans_, keyed by block, and the record comes back with
 * the block if an uncounted fill returns it; a counted demand fill
 * or a prefetch fill of the block drops it. orphans_ is probed only
 * when not empty, and it is empty only in runs with no uncounted
 * fills: naive ESP, runahead and the ideal-ESP drain all fill it, the
 * ideal drain inside counted runs.
 */
class PrefetchLifecycleTracker
{
  public:
    /** @p ways is the L1's way count (SetAssocCache::numWays()). */
    explicit PrefetchLifecycleTracker(std::size_t ways) : ways_(ways) {}

    /** A prefetch of @p block filled L1 way @p way, displacing
     *  @p displaced; the fill lands at @p ready. */
    void
    onPrefetchFill(std::size_t way, Addr block, PrefetchSource source,
                   Cycle ready, std::optional<Addr> displaced)
    {
        WayRecord &rec = ways_[way];
        if (displaced)
            retire(rec, source);
        ++stats_[static_cast<std::size_t>(source)].issued;
        // A fresh prefetch record overrides anything the block left
        // behind (a prefetched record is never scored as demand-live).
        takeOrphan(block);
        rec = WayRecord{ready, source, WayRecord::prefetched};
    }

    /** A demand access hit L1 way @p way at @p now. */
    void
    onDemandAccess(std::size_t way, Cycle now)
    {
        WayRecord &rec = ways_[way];
        if ((rec.flags & (WayRecord::prefetched | WayRecord::used)) ==
            WayRecord::prefetched) {
            rec.flags |= WayRecord::used;
            PrefetchSourceStats &s =
                stats_[static_cast<std::size_t>(rec.source)];
            if (now >= rec.ready) {
                ++s.timely;
                s.leadCycleSum += now - rec.ready;
            } else {
                ++s.late;
            }
        }
        // A demanded block (prefetched or not) is live demand data:
        // if a later prefetch fill displaces it, that fill was
        // harmful.
        rec.flags |= WayRecord::demanded;
    }

    /** A demand fill put @p block in L1 way @p way, displacing
     *  @p displaced. */
    void
    onDemandFill(std::size_t way, Addr block,
                 std::optional<Addr> displaced)
    {
        WayRecord &rec = ways_[way];
        if (displaced)
            retire(rec, std::nullopt);
        // The block arrived on demand, not via prefetch: any record it
        // left behind on an uncounted eviction is stale.
        takeOrphan(block);
        rec = WayRecord{0, PrefetchSource::Other, WayRecord::demanded};
    }

    /** A fill the tracker does not score (see the class comment) put
     *  @p block in L1 way @p way, displacing @p displaced. */
    void
    onUncountedFill(std::size_t way, Addr block,
                    std::optional<Addr> displaced)
    {
        WayRecord &rec = ways_[way];
        if (displaced && rec.flags != 0)
            orphans_.insertOrAssign(*displaced, rec);
        rec = takeOrphan(block);
    }

    /** End of run: score still-unused prefetches as useless. */
    void finalize();

    const PrefetchSourceStats &
    stats(PrefetchSource source) const
    {
        return stats_[static_cast<std::size_t>(source)];
    }

  private:
    /** Lifecycle state of the block in one L1 way. */
    struct WayRecord
    {
        static constexpr std::uint8_t prefetched = 1; //!< live prefetch
        static constexpr std::uint8_t used = 2;       //!< demanded since
        static constexpr std::uint8_t demanded = 4;   //!< demand-live

        Cycle ready = 0; //!< when the prefetch fill lands
        PrefetchSource source = PrefetchSource::Other;
        std::uint8_t flags = 0;
    };

    /** The block of @p rec left the L1; @p byPrefetch names the
     *  displacing source when the evictor was a prefetch fill. */
    void
    retire(const WayRecord &rec, std::optional<PrefetchSource> byPrefetch)
    {
        if (rec.flags & WayRecord::prefetched) {
            if (!(rec.flags & WayRecord::used)) {
                ++stats_[static_cast<std::size_t>(rec.source)].useless;
            } else if (byPrefetch) {
                // The victim was prefetched data the demand stream
                // had adopted — displacing it is pollution all the
                // same.
                ++stats_[static_cast<std::size_t>(*byPrefetch)].harmful;
            }
        } else if ((rec.flags & WayRecord::demanded) && byPrefetch) {
            ++stats_[static_cast<std::size_t>(*byPrefetch)].harmful;
        }
    }

    /** Remove and return @p block's orphaned record (empty if none). */
    WayRecord
    takeOrphan(Addr block)
    {
        WayRecord rec;
        if (orphans_.empty())
            return rec;
        if (const WayRecord *orphan = orphans_.find(block)) {
            rec = *orphan;
            orphans_.erase(block);
        }
        return rec;
    }

    std::array<PrefetchSourceStats, numPrefetchSources> stats_{};
    std::vector<WayRecord> ways_;
    AddrMap<WayRecord> orphans_;
};

/**
 * FIFO-bounded map of in-flight prefetch block addresses.
 *
 * The FIFO is an intrusive power-of-two ring of block addresses. A
 * consumed block leaves the table immediately but its ring slot stays
 * behind as a stale entry (exactly the retired-deque semantics the
 * eviction loop always had); the ring therefore grows past the
 * nominal capacity and is compacted only by eviction.
 */
class InflightPrefetchBuffer
{
  public:
    explicit InflightPrefetchBuffer(std::size_t capacity = 64)
        : capacity_(capacity == 0 ? 1 : capacity)
    {
        fifo_.resize(64);
    }

    /**
     * Record a prefetch of @p block_addr completing at @p ready.
     * When full, the oldest entry is replaced (finite MSHRs).
     * @return false if the block was already in flight.
     */
    bool
    issue(Addr block_addr, Cycle ready)
    {
        if (map_.contains(block_addr))
            return false;
        while (map_.size() >= capacity_ && fifoHead_ != fifoTail_) {
            map_.erase(fifo_[fifoHead_ & (fifo_.size() - 1)]);
            ++fifoHead_;
        }
        map_.insertOrAssign(block_addr, ready);
        fifoPush(block_addr);
        return true;
    }

    /**
     * A demand access touched the block: remove and return its ready
     * cycle (nullopt if not in flight).
     */
    std::optional<Cycle>
    consume(Addr block_addr)
    {
        if (map_.empty())
            return std::nullopt;
        Cycle *ready = map_.find(block_addr);
        if (!ready)
            return std::nullopt;
        const Cycle when = *ready;
        map_.erase(block_addr);
        // The ring may retain a stale address; issue() skips entries
        // no longer present in the map when it evicts.
        return when;
    }

    bool
    contains(Addr block_addr) const
    {
        return map_.contains(block_addr);
    }

    std::size_t size() const { return map_.size(); }

    void
    clear()
    {
        map_.clear();
        fifoHead_ = fifoTail_ = 0;
    }

  private:
    void
    fifoPush(Addr block_addr)
    {
        if (fifoTail_ - fifoHead_ == fifo_.size())
            growFifo();
        fifo_[fifoTail_ & (fifo_.size() - 1)] = block_addr;
        ++fifoTail_;
    }

    void growFifo();

    std::size_t capacity_;
    AddrMap<Cycle> map_;
    std::vector<Addr> fifo_; //!< power-of-two ring store
    std::uint64_t fifoHead_ = 0;
    std::uint64_t fifoTail_ = 0;
};

} // namespace espsim

#endif // ESPSIM_PREFETCH_INFLIGHT_HH
