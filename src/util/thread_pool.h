// Fixed-size worker pool, one per campaign: its calibration groups and
// their experiments share it. Tasks are observed through std::future, which
// rethrows a task's exception on the caller thread. A leaf task (submit)
// never waits on another task: an experiment, a profiling run. An outer
// task (submit_outer) may wait() on leaf tasks: a calibration group. A
// worker inside wait() runs queued leaf tasks instead of blocking, so no
// wait can deadlock at any pool size, and never starts an outer task, so
// outer tasks never nest on one thread. The destructor discards unstarted
// tasks (their futures report broken_promise), lets running ones finish
// and joins every worker.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/checked.h"

namespace avis::util {

class ThreadPool {
 public:
  explicit ThreadPool(int workers) {
    expects(workers > 0, "thread pool needs at least one worker");
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      workers_.emplace_back([this](std::stop_token stop) { p_run(stop); });
    }
  }

  ~ThreadPool() {
    {
      // Dropping the queued packaged_tasks breaks their promises, which is
      // how a caller blocked on get() learns the pool went away.
      std::lock_guard lock(mutex_);
      queue_.clear();
    }
    for (auto& worker : workers_) worker.request_stop();
    cv_.notify_all();
    // std::jthread destructors join.
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int worker_count() const { return static_cast<int>(workers_.size()); }

  // Enqueues a leaf task (`leaf` false: an outer one); the returned future
  // yields its result or rethrows its exception.
  template <typename F>
  std::future<std::invoke_result_t<std::decay_t<F>>> submit(F&& fn, bool leaf = true) {
    using Result = std::invoke_result_t<std::decay_t<F>>;
    // shared_ptr because std::function requires copyable targets and
    // packaged_task is move-only.
    auto task = std::make_shared<std::packaged_task<Result()>>(std::forward<F>(fn));
    std::future<Result> future = task->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.push_back(Task{[task] { (*task)(); }, leaf});
    }
    cv_.notify_all();  // all: a waiting worker must not take an idle one's wakeup
    return future;
  }

  template <typename F>
  std::future<std::invoke_result_t<std::decay_t<F>>> submit_outer(F&& fn) {
    return submit(std::forward<F>(fn), /*leaf=*/false);
  }

  // Blocks until `future`, a task of this pool, is ready. On a worker of
  // this pool it runs queued leaf tasks meanwhile, and blocks only while
  // none is queued: the awaited task is then running on another thread.
  template <typename T>
  void wait(const std::future<T>& future) {
    if (t_worker_of_ != this) return future.wait();
    std::unique_lock lock(mutex_);
    while (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      const auto leaf = std::find_if(queue_.begin(), queue_.end(),
                                     [](const Task& task) { return task.leaf; });
      if (leaf == queue_.end()) {
        cv_.wait(lock);  // every task completion notifies
      } else {
        p_dequeue_and_run(lock, leaf);
      }
    }
  }

 private:
  struct Task {
    std::function<void()> run;
    bool leaf;
  };

  // Dequeues a task and runs it with the lock released, then wakes the
  // waiters: the task's future may be the one they wait for.
  void p_dequeue_and_run(std::unique_lock<std::mutex>& lock, std::deque<Task>::iterator task) {
    std::function<void()> run = std::move(task->run);
    queue_.erase(task);
    lock.unlock();
    run();  // packaged_task captures exceptions into the future
    run = nullptr;
    lock.lock();
    cv_.notify_all();
  }

  void p_run(std::stop_token stop) {
    t_worker_of_ = this;
    std::unique_lock lock(mutex_);
    for (;;) {
      cv_.wait(lock, stop, [this] { return !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested, nothing left to run
      p_dequeue_and_run(lock, queue_.begin());
    }
  }

  static inline thread_local const ThreadPool* t_worker_of_ = nullptr;

  std::mutex mutex_;
  std::condition_variable_any cv_;
  std::deque<Task> queue_;
  std::vector<std::jthread> workers_;  // last member: destroyed (joined) first
};

}  // namespace avis::util
