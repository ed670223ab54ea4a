#include "exp/thread_pool.h"

#include <utility>

#include "common/check.h"

namespace vod::exp {

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = DefaultThreads();
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  try {
    for (int i = 1; i < threads; ++i) {  // The caller is thread 0.
      workers_.emplace_back([this]() { WorkerLoop(); });
    }
  } catch (...) {  // A thread failed to start: join the ones that did.
    StopAndJoin();
    throw;
  }
}

ThreadPool::~ThreadPool() { StopAndJoin(); }

void ThreadPool::StopAndJoin() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

int ThreadPool::DefaultThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t workers = workers_.size();  // Fixed since construction.
  {
    MutexLock lock(mu_);
    VOD_CHECK(fn_ == nullptr);  // Nested in a task, or from a second thread.
    fn_ = &fn;
    n_ = n;
    next_.store(0, std::memory_order_relaxed);
    running_ = workers;
    ++round_;
    work_cv_.NotifyAll();
  }
  RunIndices(fn, n);  // The caller's share: no wake-up stands before it.
  MutexLock lock(mu_);
  while (running_ > 0) done_cv_.Wait(mu_);
  fn_ = nullptr;
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void ThreadPool::RunIndices(const std::function<void(std::size_t)>& fn,
                            std::size_t n) {
  for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed); i < n;
       i = next_.fetch_add(1, std::memory_order_relaxed)) {
    try {
      fn(i);
    } catch (...) {
      MutexLock lock(mu_);
      if (!error_ || i < error_index_) {
        error_ = std::current_exception();
        error_index_ = i;
      }
    }
  }
}

void ThreadPool::WorkerLoop() {
  std::size_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    {
      MutexLock lock(mu_);
      while (!stop_ && round_ == seen) work_cv_.Wait(mu_);
      if (stop_) return;
      seen = round_;
      fn = fn_;
      n = n_;
    }
    RunIndices(*fn, n);
    MutexLock lock(mu_);
    if (--running_ == 0) done_cv_.NotifyOne();
  }
}

}  // namespace vod::exp
