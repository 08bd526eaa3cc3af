#include "server/arrival.hh"

#include <algorithm>
#include <cmath>

namespace espsim
{

ArrivalProcess::ArrivalProcess(const ArrivalConfig &config)
    : rng_(config.seed), meanGap_(std::max(config.meanGapCycles, 1.0))
{
}

Cycle
ArrivalProcess::arrivalCycle()
{
    // Unit-mean exponential draw (inverse CDF; u < 1 by Rng contract).
    time_ += meanGap_ * -std::log(1.0 - rng_.real());
    return static_cast<Cycle>(time_);
}

std::unique_ptr<ArrivalProcess>
makeArrivalProcess(const ArrivalConfig &config)
{
    return std::make_unique<ArrivalProcess>(config);
}

} // namespace espsim
