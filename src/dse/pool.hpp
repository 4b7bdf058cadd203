#pragma once
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace syndcim::dse {

/// Work-stealing thread pool for the DSE sweep: every worker owns a deque
/// it pushes/pops at the front (LIFO — keeps a worker's recently spawned
/// work hot), and steals from the *back* of a victim's deque when its own
/// is empty (FIFO — steals the oldest, typically largest, unit of work).
///
/// Tasks are plain `void()` closures; results travel through whatever
/// storage the closure captures (the sweep driver preallocates one slot
/// per task, which also makes the merge order — and therefore the sweep
/// output — independent of the execution schedule).
///
/// Submission from inside a task lands on the submitting worker's own
/// deque; external submissions are dealt round-robin across workers.
class WorkStealingPool {
 public:
  struct Stats {
    int threads = 0;
    std::uint64_t executed = 0;  ///< tasks run to completion
    std::uint64_t stolen = 0;    ///< tasks executed by a non-owner worker
  };

  /// `threads` < 1 is clamped to 1. `default_threads()` gives the
  /// hardware concurrency (at least 1).
  explicit WorkStealingPool(int threads);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  void submit(std::function<void()> task);
  /// Block until every submitted task (including tasks submitted by
  /// tasks) has finished.
  void wait_idle();

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] static int default_threads();

 private:
  struct Worker {
    std::deque<std::function<void()>> deque;
    std::mutex mu;
    std::thread thread;
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> stolen{0};
  };

  void worker_loop(std::size_t self);
  bool try_pop_own(std::size_t self, std::function<void()>& task);
  bool try_steal(std::size_t self, std::function<void()>& task);

  std::vector<std::unique_ptr<Worker>> workers_;
  /// Submission-time deque-depth samples (`dse.pool.queue_depth`);
  /// resolved once here, observed only while obs is enabled.
  obs::Histogram* queue_depth_hist_ = nullptr;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> pending_{0};
  /// Tasks in the deques. Raised and stop_ set under work_mu_, which an
  /// idle worker holds from its last check to its wait, so no wake-up is
  /// lost. A task popped before its submit raised this leaves it at -1
  /// until the submit does.
  std::atomic<std::int64_t> queued_{0};
  std::atomic<std::uint64_t> rr_{0};  ///< round-robin external submission
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;   ///< signalled when pending_ hits 0
  std::mutex work_mu_;
  std::condition_variable work_cv_;   ///< signalled on queued_ or stop_
};

/// Run `fn(i)` for i in [0, n) on the pool and wait for completion.
void parallel_for(WorkStealingPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace syndcim::dse
