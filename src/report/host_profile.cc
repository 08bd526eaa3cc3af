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

void
mergeHostStats(StatGroup &stats, const HostCellProfile &profile)
{
    stats.set("host.gen_ms", profile.genMs);
    stats.set("host.warmup_ms", profile.warmupMs);
    stats.set("host.sim_ms", profile.simMs);
    stats.set("host.report_ms", profile.reportMs);
    stats.set("host.total_ms", profile.totalMs());
    stats.set("host.peak_rss_mb", peakRssMb());
}

} // namespace espsim
