/**
 * @file
 * Set-associative, LRU-replacement cache tag array.
 *
 * Tracks presence only (the simulator is trace driven, so no data
 * values are stored). Used for L1-I, L1-D, L2, and as the substrate of
 * the ESP cachelets.
 *
 * The tags are dense: one Addr per way in a set-major array, with an
 * impossible tag marking an empty way, so a set scan reads one or two
 * host cache lines. The LRU stamp and the dirty bit share one word per
 * way in a parallel array. Lookups return the way index, so a caller
 * that missed can fill without searching the set again (fillAbsent)
 * and a caller that hit can mark or refresh the way it found.
 *
 * The lookup/fill methods live in the header: they are the innermost
 * loop of every simulated memory access, and inlining them into the
 * core's issue loop removes a call per access and lets the set index
 * fold into a mask (set counts are powers of two for every real
 * geometry; a modulo fallback covers odd test geometries).
 */

#ifndef ESPSIM_CACHE_CACHE_HH
#define ESPSIM_CACHE_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace espsim
{

/** Geometry and latency of one cache level. */
struct CacheGeometry
{
    std::string name = "cache";
    std::size_t sizeBytes = 32 * 1024;
    unsigned assoc = 2;
    Cycle hitLatency = 2;

    std::size_t numBlocks() const { return sizeBytes / blockBytes; }
    std::size_t numSets() const { return numBlocks() / assoc; }
};

/** LRU set-associative tag array. */
class SetAssocCache
{
  public:
    /** Index of one way across the whole cache (set * assoc + way). */
    using Way = std::uint32_t;

    /** What a lookup returns when the block is not present. */
    static constexpr Way noWay = ~Way{0};

    /** Outcome of a fill: fillAbsent() or insert(). */
    struct Fill
    {
        Way way;                       //!< the way now holding the block
        std::optional<Addr> displaced; //!< block-aligned victim, if any
    };

    explicit SetAssocCache(CacheGeometry geometry);

    const CacheGeometry &geometry() const { return geometry_; }

    /** Number of ways in the cache: every Way is below this. */
    std::size_t numWays() const { return numWays_; }

    /**
     * Demand lookup of the block containing @p addr; updates LRU on
     * hit.
     * @return the way holding the block, or noWay on a miss.
     */
    Way
    lookup(Addr addr)
    {
        ++accesses_;
        const Way way = find(addr);
        if (way != noWay) {
            touch(way);
            ++hits_;
        }
        return way;
    }

    /** Way holding @p addr's block without touching replacement
     *  state, or noWay. */
    Way
    find(Addr addr) const
    {
        return findInWays(addr, 0, geometry_.assoc - 1);
    }

    /** Presence check without touching replacement state. */
    bool contains(Addr addr) const { return find(addr) != noWay; }

    /** Make @p way the most recently used of its set. */
    void
    touch(Way way)
    {
        stamp(way) = (++useClock_ << 1) | (stamp(way) & 1);
    }

    /** Mark the block in @p way dirty. */
    void markDirty(Way way) { stamp(way) |= 1; }

    /**
     * Fill the block containing @p addr unless it is present, in which
     * case refresh its LRU (and mark it dirty if @p dirty). Evicts the
     * set's LRU way if the set is full.
     * @return the fill, or a Fill whose way is noWay on a hit.
     */
    Fill
    insert(Addr addr, bool dirty = false)
    {
        return insertInWays(addr, 0, geometry_.assoc - 1, dirty);
    }

    /**
     * Fill the block containing @p addr, which the caller has just
     * missed on: one victim scan, no tag search. Evicts the set's LRU
     * way if the set is full.
     */
    Fill
    fillAbsent(Addr addr, bool dirty = false)
    {
        // The smallest stamp is the first empty way, or else the LRU.
        const Way base = setBase(addr);
        const std::uint64_t *stamps = &stamp(base);
        unsigned victim = 0;
        std::uint64_t oldest = stamps[0];
        for (unsigned w = 1; w < geometry_.assoc; ++w) {
            if (stamps[w] < oldest) {
                oldest = stamps[w];
                victim = w;
            }
        }
        return place(base + victim, addr, dirty);
    }

    /** Drop every block. */
    void invalidateAll();

    /** Number of valid blocks currently cached. */
    std::size_t population() const;

    /**
     * Number of valid *dirty* blocks. Speculative (cachelet) stores
     * must never dirty the architectural L1/L2 (paper §3.4); the fuzz
     * harness asserts this via before/after snapshots.
     */
    std::size_t dirtyPopulation() const;

    // Demand-access statistics (prefetch fills are not counted here).
    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return accesses_ - hits_; }
    void clearStats() { accesses_ = hits_ = 0; }

  protected:
    /** Tag of an empty way; block numbers stay below 2^58. */
    static constexpr Addr emptyTag = ~Addr{0};

    CacheGeometry geometry_;
    std::size_t numSets_;
    std::size_t setMask_ = 0; //!< numSets_ - 1 when a power of two
    Way numWays_;
    /**
     * Two parallel per-way arrays, set-major, in one allocation: the
     * tags (emptyTag for an empty way), then the stamps (LRU stamp
     * << 1 | dirty bit; 0 for an empty way). Valid ways hold distinct
     * stamps >= 1, so the smallest stamp in a set is its first empty
     * way, or else its LRU way.
     */
    std::vector<std::uint64_t> words_;
    std::uint64_t useClock_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t hits_ = 0;

    Addr &tag(Way way) { return words_[way]; }
    Addr tag(Way way) const { return words_[way]; }
    std::uint64_t &stamp(Way way) { return words_[numWays_ + way]; }
    std::uint64_t stamp(Way way) const { return words_[numWays_ + way]; }

    /** First way of the set holding @p addr's block. */
    Way
    setBase(Addr addr) const
    {
        const auto block = static_cast<std::size_t>(blockNumber(addr));
        const std::size_t set =
            setMask_ ? (block & setMask_) : (block % numSets_);
        return static_cast<Way>(set * geometry_.assoc);
    }

    /** Empty @p way (no stats, no victim reported). */
    void
    invalidateWay(Way way)
    {
        tag(way) = emptyTag;
        stamp(way) = 0;
    }

    Way
    findInWays(Addr addr, unsigned way_lo, unsigned way_hi) const
    {
        const Addr block = blockNumber(addr);
        const Way base = setBase(addr);
        for (unsigned w = way_lo; w <= way_hi; ++w) {
            if (tag(base + w) == block)
                return base + w;
        }
        return noWay;
    }

    /**
     * insert() whose victim comes from ways [way_lo, way_hi]; used by
     * Cachelet's way reservation. One pass looks for the block across
     * the whole set and picks the victim within the range.
     */
    Fill
    insertInWays(Addr addr, unsigned way_lo, unsigned way_hi, bool dirty)
    {
        const Addr block = blockNumber(addr);
        const Way base = setBase(addr);
        unsigned victim = way_lo;
        std::uint64_t oldest = ~std::uint64_t{0}; // above every stamp
        for (unsigned w = 0; w < geometry_.assoc; ++w) {
            if (tag(base + w) == block) {
                touch(base + w);
                if (dirty)
                    markDirty(base + w);
                return {noWay, std::nullopt};
            }
            if (w >= way_lo && w <= way_hi && stamp(base + w) < oldest) {
                oldest = stamp(base + w);
                victim = w;
            }
        }
        return place(base + victim, addr, dirty);
    }

    /** Put @p addr's block in @p way, reporting the block it displaced. */
    Fill
    place(Way way, Addr addr, bool dirty)
    {
        Fill fill{way, std::nullopt};
        if (tag(way) != emptyTag)
            fill.displaced = tag(way) * blockBytes;
        tag(way) = blockNumber(addr);
        stamp(way) = (++useClock_ << 1) | (dirty ? 1 : 0);
        return fill;
    }

    bool
    lookupInWays(Addr addr, unsigned way_lo, unsigned way_hi)
    {
        ++accesses_;
        const Way way = findInWays(addr, way_lo, way_hi);
        if (way == noWay)
            return false;
        touch(way);
        ++hits_;
        return true;
    }
};

} // namespace espsim

#endif // ESPSIM_CACHE_CACHE_HH
