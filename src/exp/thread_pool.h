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
/// and an index count, and the workers claim indices from one shared counter,
/// so a few long ones (a Zipf-hot disk, a `--full` day) idle no worker.
class ThreadPool {
 public:
  /// `threads` <= 0 selects DefaultThreads().
  explicit ThreadPool(int threads = 0);

  /// Joins the workers; no ParallelFor may be in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int thread_count() const { return static_cast<int>(workers_.size()); }

  /// hardware_concurrency(), or 1 when the runtime cannot report it.
  static int DefaultThreads();

  /// Runs fn(i) for every i in [0, n) on the workers and returns when all
  /// have run; if any threw, the lowest index's exception is rethrown then.
  /// One call at a time per pool: a call from inside `fn`, or from a second
  /// thread while another is in flight, fails a VOD_CHECK, not a deadlock.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  /// Waits for each round, claims and runs its indices until none are left.
  void WorkerLoop();
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
