// ThreadPool: task completion, exception propagation, waits that run leaf
// tasks, shutdown semantics.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

namespace {

using avis::util::ThreadPool;

TEST(ThreadPool, RunsEveryTaskAndReturnsResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4);
  std::atomic<int> ran{0};
  std::vector<std::future<int>> results;
  for (int i = 0; i < 64; ++i) {
    results.push_back(pool.submit([i, &ran] {
      ++ran;
      return i * i;
    }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)].get(), i * i);
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, PropagatesTaskExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto boom = pool.submit([]() -> int { throw std::runtime_error("injected"); });
  EXPECT_EQ(ok.get(), 7);
  try {
    boom.get();
    FAIL() << "expected the task's exception to be rethrown";
  } catch (const std::runtime_error& err) {
    EXPECT_STREQ(err.what(), "injected");
  }
}

TEST(ThreadPool, VoidTasksComplete) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  auto done = pool.submit([&ran] { ++ran; });
  done.get();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, DestructionMidQueueDoesNotDeadlock) {
  std::atomic<int> ran{0};
  std::vector<std::future<void>> results;
  {
    ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) {
      results.push_back(pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ++ran;
      }));
    }
    // Destroy the pool while most tasks are still queued: running tasks
    // finish, queued tasks are abandoned, workers join. Reaching the
    // assertions below at all is the no-deadlock check.
  }
  int completed = 0;
  int abandoned = 0;
  for (auto& result : results) {
    try {
      result.get();
      ++completed;
    } catch (const std::future_error& err) {
      EXPECT_EQ(err.code(), std::make_error_code(std::future_errc::broken_promise));
      ++abandoned;
    }
  }
  EXPECT_EQ(completed + abandoned, 16);
  EXPECT_EQ(completed, ran.load());
}

// The one worker is busy with the outer task, so only the wait itself can
// run the subtask: without it this deadlocks.
TEST(ThreadPool, WaitOnOneWorkerRunsTheSubtask) {
  ThreadPool pool(1);
  auto outer = pool.submit_outer([&pool] {
    auto sub = pool.submit([] { return std::this_thread::get_id(); });
    pool.wait(sub);
    return sub.get() == std::this_thread::get_id();
  });
  EXPECT_TRUE(outer.get());
}

// A waiting worker runs leaf tasks only: a queued outer task waits for an
// idle worker instead of nesting inside the waiting one.
TEST(ThreadPool, WaitNeverStartsAnOuterTask) {
  ThreadPool pool(1);
  std::atomic<bool> second_started{false};
  std::future<void> second;
  auto first = pool.submit_outer([&] {
    second = pool.submit_outer([&second_started] { second_started = true; });
    auto sub = pool.submit([] {});
    pool.wait(sub);
    return second_started.load();
  });
  EXPECT_FALSE(first.get());
  second.get();  // the worker runs it once the first is done
  EXPECT_TRUE(second_started.load());
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool pool(0), avis::util::InvariantError);
}

}  // namespace
