/**
 * @file
 * A small work-stealing thread pool for embarrassingly parallel
 * sweeps.
 *
 * Each worker owns a deque of jobs: it pops work from the front of its
 * own queue and, when empty, steals from the back of a sibling's queue
 * (the classic Chase-Lev discipline, here with plain mutexes — jobs
 * are whole timing simulations, so queue traffic is negligible).
 * Submissions are distributed round-robin; a job submitted from inside
 * a worker goes to that worker's own queue, which keeps recursive
 * submission cheap and deadlock-free.
 *
 * Jobs may be cancelled until a worker picks them up; cancel() reports
 * whether the job was still pending. wait() blocks until every
 * non-cancelled job has finished, so a pool is always drained before
 * its results are read. An exception escaping a job is swallowed and
 * counted (jobExceptions()) instead of std::terminate-ing the process
 * — one bad job must never tear down the whole batch — but jobs that
 * care about the error should still catch it themselves and report a
 * structured failure, the way the sweep runner does.
 *
 * The default worker count comes from VCA_JOBS when it is an integer
 * in 1..1024, otherwise std::thread::hardware_concurrency().
 */

#ifndef VCA_SIM_THREAD_POOL_HH
#define VCA_SIM_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vca {

class ThreadPool
{
  public:
    using Job = std::function<void()>;
    using JobId = std::uint64_t;

    /** @param numThreads worker count; 0 = defaultThreads(). */
    explicit ThreadPool(unsigned numThreads = 0);

    /** Drains every pending job, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a job; the returned id can cancel it while pending. */
    JobId submit(Job job);

    /**
     * Remove a pending job from its queue. Returns true when the job
     * was still queued (it will never run); false when it already
     * started or finished.
     */
    bool cancel(JobId id);

    /** Block until no job is pending or running. */
    void wait();

    unsigned numThreads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** VCA_JOBS when it is an integer in 1..1024 (parseU64), else
     *  hardware_concurrency(); a bad value is warned about. */
    static unsigned defaultThreads();

    /** Process-wide pool built on first use with defaultThreads(). */
    static ThreadPool &global();

    /** Process-wide count of exceptions swallowed at job boundaries. */
    static std::uint64_t jobExceptions();

  private:
    struct QueuedJob
    {
        JobId id;
        Job fn;
    };

    struct Worker
    {
        std::mutex mutex;
        std::deque<QueuedJob> queue;
    };

    void workerLoop(unsigned self);
    bool takeJob(unsigned self, QueuedJob &out);

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;

    std::mutex mutex_;              ///< guards the counters below
    std::condition_variable wakeCv_; ///< pending_ changed / stopping
    std::condition_variable idleCv_; ///< outstanding_ hit zero
    std::uint64_t pending_ = 0;     ///< queued, not yet picked up
    std::uint64_t outstanding_ = 0; ///< pending + currently running
    JobId nextId_ = 1;
    std::uint64_t submitCursor_ = 0;
    bool stop_ = false;
};

} // namespace vca

#endif // VCA_SIM_THREAD_POOL_HH
