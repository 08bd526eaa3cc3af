#include "report/host_profile.hh"

#include <sys/resource.h>

namespace espsim
{

double
peakRssMb()
{
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
#ifdef __APPLE__
    // ru_maxrss is bytes on Darwin, kilobytes elsewhere.
    return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
}

} // namespace espsim
