#ifndef VODB_EXP_THREAD_POOL_H_
#define VODB_EXP_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace vod::exp {

/// Fork-join pool for sweeps and sharded epochs: ParallelFor publishes a body
/// and an index count, then the caller and the workers claim indices from one
/// shared counter, so a few long ones (a Zipf-hot disk, a `--full` day) idle
/// no thread, and the caller's share starts without waiting for a wake-up.
class ThreadPool {
 public:
  /// `threads` threads run each round, the caller included, so `threads` - 1
  /// workers start (none for 1). `threads` <= 0 selects DefaultThreads().
  explicit ThreadPool(int threads = 0);

  /// Joins the workers; no ParallelFor may be in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads that run a round's indices, the caller included.
  int thread_count() const { return static_cast<int>(workers_.size()) + 1; }

  /// hardware_concurrency(), or 1 when the runtime cannot report it.
  static int DefaultThreads();

  /// Runs fn(i) for every i in [0, n) on the caller and the workers; returns
  /// once all have run, rethrowing the lowest throwing index's exception. One
  /// call at a time per pool: a call from inside `fn`, or from a second thread
  /// while another is in flight, fails a VOD_CHECK, not a deadlock.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  /// Waits for each round, runs its share and checks out of it.
  void WorkerLoop();
  /// Claims and runs indices until none are left; caller and workers alike.
  void RunIndices(const std::function<void(std::size_t)>& fn, std::size_t n);
  void StopAndJoin();

  Mutex mu_;
  CondVar work_cv_;  ///< Workers wait here for a new round or stop_.
  CondVar done_cv_;  ///< The caller waits here for `running_` to reach 0.
  /// The round's body; non-null exactly while a ParallelFor is in flight.
  const std::function<void(std::size_t)>* fn_ VODB_GUARDED_BY(mu_) = nullptr;
  std::size_t n_ VODB_GUARDED_BY(mu_) = 0;
  std::size_t round_ VODB_GUARDED_BY(mu_) = 0;
  std::size_t running_ VODB_GUARDED_BY(mu_) = 0;  ///< Workers still in it.
  bool stop_ VODB_GUARDED_BY(mu_) = false;
  std::exception_ptr error_ VODB_GUARDED_BY(mu_);
  std::size_t error_index_ VODB_GUARDED_BY(mu_) = 0;

  /// Next unclaimed index of the round; reset under mu_ before it starts.
  std::atomic<std::size_t> next_{0};
  std::vector<std::thread> workers_;  // Last: the workers use every field.
};

}  // namespace vod::exp

#endif  // VODB_EXP_THREAD_POOL_H_
