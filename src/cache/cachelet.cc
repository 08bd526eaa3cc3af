#include "cache/cachelet.hh"

#include "common/logging.hh"

namespace espsim
{

Cachelet::Cachelet(CacheGeometry geometry)
    : SetAssocCache(std::move(geometry)),
      reservedWay_(geometry_.assoc - 1)
{
    if (geometry_.assoc < 2)
        fatal("cachelet '%s' needs at least 2 ways to partition",
              geometry_.name.c_str());
}

void
Cachelet::rotateReservedWay()
{
    reservedWay_ = reservedWay_ == 0 ? geometry_.assoc - 1 : 0;
    // The new ESP-2 way must not leak the promoted event's blocks into
    // the fresh context; clear just that way.
    invalidateFor(EspDepth::Esp2);
}

void
Cachelet::invalidateFor(EspDepth depth)
{
    unsigned lo, hi;
    waysFor(depth, lo, hi);
    for (std::size_t set = 0; set < numSets_; ++set) {
        for (unsigned w = lo; w <= hi; ++w)
            invalidateWay(static_cast<Way>(set * geometry_.assoc + w));
    }
}

} // namespace espsim
