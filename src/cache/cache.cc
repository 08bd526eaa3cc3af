#include "cache/cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace espsim
{

SetAssocCache::SetAssocCache(CacheGeometry geometry)
    : geometry_(std::move(geometry))
{
    if (geometry_.assoc == 0)
        fatal("cache '%s': zero associativity", geometry_.name.c_str());
    if (geometry_.sizeBytes % (geometry_.assoc * blockBytes) != 0) {
        fatal("cache '%s': size %zu not divisible into %u ways of 64 B "
              "blocks", geometry_.name.c_str(), geometry_.sizeBytes,
              geometry_.assoc);
    }
    numSets_ = geometry_.numSets();
    if (numSets_ == 0)
        fatal("cache '%s': zero sets", geometry_.name.c_str());
    if ((numSets_ & (numSets_ - 1)) == 0)
        setMask_ = numSets_ - 1;
    numWays_ = static_cast<Way>(numSets_ * geometry_.assoc);
    words_.resize(2 * std::size_t{numWays_});
    invalidateAll();
}

void
SetAssocCache::invalidateAll()
{
    std::fill(words_.begin(), words_.begin() + numWays_, emptyTag);
    std::fill(words_.begin() + numWays_, words_.end(), 0);
}

std::size_t
SetAssocCache::population() const
{
    return numWays_ -
        static_cast<std::size_t>(std::count(
            words_.begin(), words_.begin() + numWays_, emptyTag));
}

std::size_t
SetAssocCache::dirtyPopulation() const
{
    std::size_t n = 0;
    for (Way way = 0; way < numWays_; ++way) {
        if (tag(way) != emptyTag && (stamp(way) & 1))
            ++n;
    }
    return n;
}

} // namespace espsim
