/**
 * @file
 * Stall watchdog: detects a wedged run and captures the evidence.
 *
 * Long `espsim serve` runs must make continuous retire progress; a
 * run that stops retiring (a livelocked model change, a pathological
 * workload cell, a host stall) should be *detected* within a bounded
 * wall-clock budget, not discovered when someone checks hours later.
 *
 * The watchdog is a background thread watching a relaxed-atomic
 * retire-progress counter (LiveTelemetry::progress, bumped by the
 * CounterSampler). When the counter has not moved for at least
 * the configured budget it fires **exactly once**:
 *
 *   1. latches its degraded state (a reason string with the stall
 *      duration and last-progress count), which the serve report and
 *      the artifact's `health` block carry;
 *   2. invokes the dump callback (the serve path wires this to the
 *      span flight-recorder ring + a host-profile line) so the
 *      evidence lands on disk while the process is still alive.
 *
 * Firing does not kill the run: a stall that resolves still completes
 * normally, but the run stays marked degraded — detection is the
 * contract, not recovery. Test with ESPSIM_STALL_INJECT (see
 * report/telemetry.hh) which wedges the retire boundary on demand.
 */

#ifndef ESPSIM_REPORT_WATCHDOG_HH
#define ESPSIM_REPORT_WATCHDOG_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

namespace espsim
{

/** What the watchdog saw when it fired. */
struct StallReport
{
    double stalledMs = 0;          //!< time with no retire progress
    std::uint64_t lastProgress = 0; //!< progress count at the stall
};

/** Background no-progress detector over one progress counter. */
class StallWatchdog
{
  public:
    using DumpFn = std::function<void(const StallReport &)>;

    /**
     * Watch @p progress; fire when it has not moved for @p budgetMs.
     * The optional @p dump runs on the watchdog thread, once.
     */
    StallWatchdog(const std::atomic<std::uint64_t> &progress,
                  double budgetMs, DumpFn dump = nullptr);
    ~StallWatchdog();
    StallWatchdog(const StallWatchdog &) = delete;
    StallWatchdog &operator=(const StallWatchdog &) = delete;

    /** Stop the watchdog thread (idempotent; also run by ~). */
    void stop();

    /** How many times the watchdog fired (0 or 1 by design). */
    std::uint64_t
    fireCount() const
    {
        return fires_.load(std::memory_order_acquire);
    }

    /** The watchdog fired: the run is degraded. */
    bool degraded() const { return fireCount() > 0; }

    /** Why the run is degraded ("" while healthy). */
    std::string
    degradedReason() const
    {
        return degraded() ? reason_ : std::string();
    }

    double budgetMs() const { return budgetMs_; }

  private:
    const std::atomic<std::uint64_t> &progress_;
    const double budgetMs_;
    DumpFn dump_;
    std::thread thread_;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> fires_{0};
    /** Written once, before the release increment of fires_. */
    std::string reason_;

    void watchLoop();
};

} // namespace espsim

#endif // ESPSIM_REPORT_WATCHDOG_HH
