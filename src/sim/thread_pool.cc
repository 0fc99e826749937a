#include "sim/thread_pool.hh"

#include <atomic>
#include <cstdlib>

#include "sim/logging.hh"
#include "sim/options.hh"

namespace vca {

namespace {

/** Which worker (if any) the calling thread is; -1 off-pool. */
thread_local int tlsWorkerIndex = -1;
thread_local const ThreadPool *tlsWorkerPool = nullptr;

/** Exceptions swallowed at job boundaries, across every pool. */
std::atomic<std::uint64_t> gJobExceptions{0};

} // namespace

std::uint64_t
ThreadPool::jobExceptions()
{
    return gJobExceptions.load(std::memory_order_relaxed);
}

ThreadPool::ThreadPool(unsigned numThreads)
{
    const unsigned n = numThreads ? numThreads : defaultThreads();
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.push_back(std::make_unique<Worker>());
    threads_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    wait();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wakeCv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

unsigned
ThreadPool::defaultThreads()
{
    // A worker is an OS thread: cap the count well below what could
    // exhaust the process's thread limit.
    constexpr std::uint64_t kMaxJobs = 1024;
    if (const char *env = std::getenv("VCA_JOBS")) {
        if (const auto v = parseU64(env); v && *v >= 1 && *v <= kMaxJobs)
            return static_cast<unsigned>(*v);
        warn("ignoring VCA_JOBS='%s' (want an integer in 1..%u)", env,
             static_cast<unsigned>(kMaxJobs));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

ThreadPool::JobId
ThreadPool::submit(Job job)
{
    JobId id;
    unsigned target;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        id = nextId_++;
        // A worker submitting new work keeps it local (it will pop it
        // next); everyone else deals round-robin across the queues.
        if (tlsWorkerPool == this && tlsWorkerIndex >= 0)
            target = static_cast<unsigned>(tlsWorkerIndex);
        else
            target = static_cast<unsigned>(submitCursor_++ %
                                           workers_.size());
        ++pending_;
        ++outstanding_;
    }
    {
        std::lock_guard<std::mutex> lock(workers_[target]->mutex);
        workers_[target]->queue.push_back({id, std::move(job)});
    }
    wakeCv_.notify_one();
    return id;
}

bool
ThreadPool::cancel(JobId id)
{
    for (auto &worker : workers_) {
        std::lock_guard<std::mutex> lock(worker->mutex);
        for (auto it = worker->queue.begin(); it != worker->queue.end();
             ++it) {
            if (it->id != id)
                continue;
            worker->queue.erase(it);
            bool drained;
            {
                std::lock_guard<std::mutex> glock(mutex_);
                --pending_;
                --outstanding_;
                drained = outstanding_ == 0;
            }
            if (drained)
                idleCv_.notify_all();
            return true;
        }
    }
    return false;
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock, [this] { return outstanding_ == 0; });
}

bool
ThreadPool::takeJob(unsigned self, QueuedJob &out)
{
    // Own queue first (front: newest local work stays cache-warm for
    // the owner), then steal from the back of the others.
    {
        Worker &w = *workers_[self];
        std::lock_guard<std::mutex> lock(w.mutex);
        if (!w.queue.empty()) {
            out = std::move(w.queue.front());
            w.queue.pop_front();
            return true;
        }
    }
    for (size_t off = 1; off < workers_.size(); ++off) {
        Worker &w = *workers_[(self + off) % workers_.size()];
        std::lock_guard<std::mutex> lock(w.mutex);
        if (!w.queue.empty()) {
            out = std::move(w.queue.back());
            w.queue.pop_back();
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(unsigned self)
{
    tlsWorkerIndex = static_cast<int>(self);
    tlsWorkerPool = this;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wakeCv_.wait(lock,
                         [this] { return stop_ || pending_ > 0; });
            if (stop_ && pending_ == 0)
                return;
        }
        QueuedJob job;
        if (!takeJob(self, job))
            continue; // someone else grabbed it; go back to sleep
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --pending_;
        }
        // A job that lets an exception escape must cost one job, not
        // the whole pool (std::thread would std::terminate the
        // process). Swallow, count, and keep draining the queue; the
        // sweep runner additionally catches at the point boundary so
        // callers see a structured per-point failure, and this is the
        // backstop for everything else.
        try {
            job.fn();
        } catch (const std::exception &e) {
            gJobExceptions.fetch_add(1, std::memory_order_relaxed);
            warn("thread-pool job raised '%s'; worker continues",
                 e.what());
        } catch (...) {
            gJobExceptions.fetch_add(1, std::memory_order_relaxed);
            warn("thread-pool job raised a non-standard exception; "
                 "worker continues");
        }
        bool drained;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --outstanding_;
            drained = outstanding_ == 0;
        }
        if (drained)
            idleCv_.notify_all();
    }
}

} // namespace vca
