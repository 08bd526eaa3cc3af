/**
 * @file
 * Seeded-deterministic request arrivals for the serve path: an
 * open-loop Poisson stream, whose exponentially distributed
 * inter-arrival gaps at a fixed mean are a pure function of
 * (mean gap, seed).
 */

#ifndef ESPSIM_SERVER_ARRIVAL_HH
#define ESPSIM_SERVER_ARRIVAL_HH

#include <cstdint>
#include <memory>

#include "common/rng.hh"
#include "common/types.hh"

namespace espsim
{

/** Knobs of the arrival schedule. */
struct ArrivalConfig
{
    /** Mean inter-arrival gap, cycles. */
    double meanGapCycles = 3000.0;
    /** Seed for the schedule's private random stream. */
    std::uint64_t seed = 0x5eed;
};

/**
 * One Poisson request-arrival schedule. arrivalCycle() is called
 * exactly once per event, in event order.
 */
class ArrivalProcess final
{
  public:
    explicit ArrivalProcess(const ArrivalConfig &config);

    /** Arrival cycle of the next event (non-decreasing). */
    Cycle arrivalCycle();

  private:
    Rng rng_;
    double meanGap_;
    double time_ = 0.0;
};

/** Build the configured schedule. */
std::unique_ptr<ArrivalProcess>
makeArrivalProcess(const ArrivalConfig &config);

} // namespace espsim

#endif // ESPSIM_SERVER_ARRIVAL_HH
