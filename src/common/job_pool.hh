/**
 * @file
 * Fixed-size thread pool for embarrassingly parallel simulation jobs.
 *
 * Deliberately minimal — no work stealing, no futures. Callers submit
 * closures that write results into pre-allocated slots and then wait()
 * for the pool to drain; result order is fixed by the slots, not by
 * scheduling, which is what keeps parallel sweeps bit-deterministic.
 *
 * A pool sized at one thread runs every job inline on the submitting
 * thread: jobs=1 is byte-for-byte the old serial behaviour, with no
 * threads created at all.
 *
 * Exception contract: a throwing job never terminates the process and
 * never corrupts the in-flight accounting. The pool captures the
 * *first* exception any job throws (later ones are counted and
 * dropped), keeps draining the remaining jobs, and rethrows the
 * captured exception from the next wait(). The inline (jobs=1) path
 * follows the same contract so callers see identical behaviour at any
 * thread count. After wait() rethrows, the pool is clean and reusable.
 */

#ifndef ESPSIM_COMMON_JOB_POOL_HH
#define ESPSIM_COMMON_JOB_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace espsim
{

/** Fixed thread pool; see file comment for the determinism contract. */
class JobPool
{
  public:
    /** @p threads workers; 0 picks defaultJobs(), 1 runs inline. */
    explicit JobPool(unsigned threads = 0);

    /** Drains remaining jobs, then joins the workers. A still-pending
     *  job exception cannot propagate from a destructor; it is
     *  reported with warn() and swallowed. */
    ~JobPool();

    JobPool(const JobPool &) = delete;
    JobPool &operator=(const JobPool &) = delete;

    /** Enqueue a job. Inline pools execute it before returning (a
     *  throwing inline job is captured, not propagated — see wait). */
    void submit(std::function<void()> job);

    /**
     * Block until every submitted job has finished, then rethrow the
     * first exception any of them threw (if any). The pool stays
     * usable after the rethrow.
     */
    void wait();

    /** Degree of parallelism this pool runs at (>= 1). */
    unsigned threadCount() const { return threads_; }

    /** Jobs that threw beyond the first captured exception. */
    std::size_t droppedExceptions() const;

    /**
     * The sweep-wide default degree of parallelism: the ESPSIM_JOBS
     * environment variable when set to a positive integer, otherwise
     * std::thread::hardware_concurrency() (1 if unknown).
     */
    static unsigned defaultJobs();

  private:
    void workerLoop();
    /** Run @p job guarded: capture its exception. */
    void runGuarded(std::function<void()> &job);
    /** Block until the queue is empty and nothing is in flight. */
    void drain();

    unsigned threads_ = 1;
    std::vector<std::thread> workers_;

    mutable std::mutex mutex_;
    std::condition_variable work_cv_; //!< workers: job ready / stop
    std::condition_variable done_cv_; //!< wait(): pool drained
    std::deque<std::function<void()>> queue_;
    std::size_t inflight_ = 0; //!< jobs popped but not yet finished
    bool stop_ = false;

    std::exception_ptr firstError_;   //!< first job exception, if any
    std::size_t droppedErrors_ = 0;   //!< throws after the first
};

} // namespace espsim

#endif // ESPSIM_COMMON_JOB_POOL_HH
