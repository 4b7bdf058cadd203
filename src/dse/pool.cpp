#include "dse/pool.hpp"

#include <algorithm>

namespace syndcim::dse {

namespace {
/// Which worker the current thread is, if it is a pool worker. One pool
/// at a time owns a given thread, so a plain thread_local pair suffices.
thread_local const WorkStealingPool* tl_pool = nullptr;
thread_local std::size_t tl_worker = 0;
}  // namespace

int WorkStealingPool::default_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

WorkStealingPool::WorkStealingPool(int threads) {
  queue_depth_hist_ = &obs::metrics().histogram(
      "dse.pool.queue_depth", {0, 1, 2, 4, 8, 16, 32, 64, 128});
  const int n = std::max(1, threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_loop(i); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  wait_idle();
  {
    const std::lock_guard<std::mutex> lock(work_mu_);
    stop_.store(true, std::memory_order_release);
  }
  work_cv_.notify_all();
  for (const auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void WorkStealingPool::submit(std::function<void()> task) {
  std::size_t target;
  if (tl_pool == this) {
    target = tl_worker;  // task-spawned work stays on the spawning worker
  } else {
    target = rr_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  }
  pending_.fetch_add(1, std::memory_order_acq_rel);
  std::size_t depth;
  {
    const std::lock_guard<std::mutex> lock(workers_[target]->mu);
    workers_[target]->deque.push_front(std::move(task));
    depth = workers_[target]->deque.size();
  }
  if (obs::enabled()) {
    queue_depth_hist_->observe(static_cast<double>(depth));
  }
  {
    const std::lock_guard<std::mutex> lock(work_mu_);
    queued_.fetch_add(1, std::memory_order_relaxed);
  }
  work_cv_.notify_all();
}

bool WorkStealingPool::try_pop_own(std::size_t self,
                                   std::function<void()>& task) {
  Worker& w = *workers_[self];
  const std::lock_guard<std::mutex> lock(w.mu);
  if (w.deque.empty()) return false;
  task = std::move(w.deque.front());
  w.deque.pop_front();
  queued_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool WorkStealingPool::try_steal(std::size_t self,
                                 std::function<void()>& task) {
  for (std::size_t k = 1; k < workers_.size(); ++k) {
    Worker& victim = *workers_[(self + k) % workers_.size()];
    const std::lock_guard<std::mutex> lock(victim.mu);
    if (victim.deque.empty()) continue;
    task = std::move(victim.deque.back());
    victim.deque.pop_back();
    queued_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void WorkStealingPool::worker_loop(std::size_t self) {
  tl_pool = this;
  tl_worker = self;
  if (obs::enabled()) {
    obs::tracer().set_thread_name("pool-worker-" + std::to_string(self));
  }
  Worker& me = *workers_[self];
  while (true) {
    std::function<void()> task;
    const bool own = try_pop_own(self, task);
    const bool got = own || try_steal(self, task);
    if (got) {
      {
        OBS_SPAN(own ? "dse.task.run" : "dse.task.steal");
        task();
      }
      me.executed.fetch_add(1, std::memory_order_relaxed);
      if (!own) me.stolen.fetch_add(1, std::memory_order_relaxed);
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Take the waiter's mutex before notifying so the notification
        // cannot slip between its predicate check and its wait.
        { const std::lock_guard<std::mutex> lock(idle_mu_); }
        idle_cv_.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(work_mu_);
    if (stop_.load(std::memory_order_acquire)) break;
    work_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_relaxed) > 0;
    });
  }
  tl_pool = nullptr;
}

void WorkStealingPool::wait_idle() {
  std::unique_lock<std::mutex> lock(idle_mu_);
  idle_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

WorkStealingPool::Stats WorkStealingPool::stats() const {
  Stats s;
  s.threads = size();
  for (const auto& w : workers_) {
    s.executed += w->executed.load(std::memory_order_relaxed);
    s.stolen += w->stolen.load(std::memory_order_relaxed);
  }
  return s;
}

void parallel_for(WorkStealingPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < n; ++i) {
    pool.submit([&fn, i] { fn(i); });
  }
  pool.wait_idle();
}

}  // namespace syndcim::dse
