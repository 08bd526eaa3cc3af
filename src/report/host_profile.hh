/**
 * @file
 * Host-side process facts: peakRssMb() reads the process peak RSS.
 * Simulator throughput and host phase times are measured by
 * perfbench/ (`--trace 1`, see docs/PERFORMANCE.md), not here.
 */

#ifndef ESPSIM_REPORT_HOST_PROFILE_HH
#define ESPSIM_REPORT_HOST_PROFILE_HH

namespace espsim
{

/** Process peak resident set size in MiB (0 when unavailable). */
double peakRssMb();

} // namespace espsim

#endif // ESPSIM_REPORT_HOST_PROFILE_HH
