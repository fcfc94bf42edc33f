#pragma once
// TaskPool: a fixed-size, lazily-started work-queue thread pool.
//
// The store tier's cross-shard operations (ProfileStore put_many /
// list / flush) fan one task per shard onto a pool like
// this one instead of walking shards serially; the pool is deliberately
// generic so the concurrent-scenario fan-out and the remote daemon can
// share it. Threads are not spawned until the first task is submitted
// (a pool member costs nothing for callers that never go parallel),
// and destruction drains the queue gracefully: every task already
// submitted runs to completion before the workers join.
//
// parallel_for never deadlocks on pool exhaustion: the calling thread
// participates in the loop body, so nested parallel_for calls (a pool
// task fanning out again) degrade to the caller executing its own
// indices when no worker is free.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace synapse::sys {

class TaskPool {
 public:
  /// `threads` = 0 picks default_thread_count(). The pool is lazy: no
  /// thread exists until the first submit()/parallel_for().
  explicit TaskPool(size_t threads = 0);

  /// Drains the queue (submitted tasks all run), then joins.
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  size_t thread_count() const { return threads_; }

  /// True once the worker threads have been spawned (first submit).
  bool started() const;

  /// Queue one task. The future resolves when the task ran; exceptions
  /// out of the task are delivered through it.
  std::future<void> submit(std::function<void()> task);

  /// Run body(i) for every i in [0, count) across the pool and the
  /// calling thread, returning when all indices completed. The first
  /// exception thrown by any body is rethrown here (the remaining
  /// indices still execute — callers relying on per-index side effects
  /// observe a complete pass). Serial inline when the pool has a single
  /// thread or count <= 1.
  void parallel_for(size_t count, const std::function<void(size_t)>& body);

  /// The process-wide pool the store tier shares (size:
  /// default_thread_count() at first use). Live for the rest of the
  /// process; per-store private pools are for sizing experiments.
  static TaskPool& shared();

  /// SYNAPSE_TASK_POOL_THREADS when set (>= 1), else
  /// hardware_concurrency (>= 1).
  static size_t default_thread_count();

 private:
  /// Caller holds mutex_.
  void ensure_started_locked();
  void worker_loop();

  size_t threads_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool stop_ = false;
};

}  // namespace synapse::sys
