#ifndef MATCHCATCHER_UTIL_THREAD_POOL_H_
#define MATCHCATCHER_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/status.h"

namespace mc {

/// Fixed-size worker pool with a FIFO task queue. Used by the joint top-k
/// executor ("one config per core", paper §4.2) and the sharded joins.
///
/// ## Lifecycle
///
/// Workers start in the constructor and run until the destructor. The
/// destructor drains every outstanding task, then joins the workers.
/// Submit() may be called from any thread, including from inside a running
/// task — but never during or after destruction: once the destructor has
/// begun, Submit() is a fatal programming error (MC_CHECK), because the
/// task could otherwise be silently dropped or enqueued onto dead workers.
/// Arrange for all producers to be quiescent before the pool dies.
///
/// ## Failure semantics
///
/// The library is exception-free (Status-based), but tasks may call user
/// code that throws. A throwing task never kills its worker and never
/// aborts the process: the exception is caught at the task boundary and
/// converted to Status::Internal. Per task, the first of these applies:
///
///   1. if the task was submitted with an error sink, the sink receives the
///      Status (called on the worker thread);
///   2. otherwise the pool records the *first* such error, and the next
///      Wait() returns it (later errors are counted but dropped).
///
/// Wait() clears the recorded error once returned, so each Submit…Wait
/// round reports its own failures.
class ThreadPool {
 public:
  /// Sink invoked (on the worker thread) with the Status of a failed task.
  using ErrorSink = std::function<void(const Status&)>;

  /// Creates a pool with `num_threads` workers (minimum 1). Workers are
  /// named `<name_prefix>-<index>` (util/thread_name.h) so sanitizer
  /// reports and debugger sessions are attributable to the owning pool.
  explicit ThreadPool(size_t num_threads,
                      const std::string& name_prefix = "mcpool");

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool();

  /// Enqueues `task`. A thrown exception is captured per the failure
  /// semantics above. Fatal if called during/after destruction.
  void Submit(std::function<void()> task);

  /// Enqueues `task` with a per-task error sink. The sink is only invoked
  /// on failure, at most once, on the worker thread.
  void Submit(std::function<void()> task, ErrorSink error_sink);

  /// Blocks until every submitted task (including tasks submitted by
  /// running tasks) has completed. Returns the first sink-less task error
  /// since the previous Wait(), or OK; the error is cleared once returned.
  Status Wait();

  size_t num_threads() const { return threads_.size(); }

  /// Number of task errors captured (sink-less tasks only) since the last
  /// Wait() that returned an error.
  size_t error_count() const;

 private:
  struct Task {
    std::function<void()> fn;
    ErrorSink error_sink;
  };

  void WorkerLoop();
  void RecordError(Status status);

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::deque<Task> queue_;
  std::vector<std::thread> threads_;
  size_t active_ = 0;
  bool shutting_down_ = false;
  Status first_error_;
  size_t error_count_ = 0;
};

}  // namespace mc

#endif  // MATCHCATCHER_UTIL_THREAD_POOL_H_
