#include "util/thread_pool.h"

#include <exception>
#include <string>
#include <utility>

#include "util/check.h"
#include "util/thread_name.h"

namespace mc {

ThreadPool::ThreadPool(size_t num_threads, const std::string& name_prefix) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back(
        [this, name = name_prefix + "-" + std::to_string(i)] {
          SetCurrentThreadName(name);
          WorkerLoop();
        });
  }
}

ThreadPool::~ThreadPool() {
  Wait();  // Drain; any unclaimed task error dies with the pool.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  Submit(std::move(task), nullptr);
}

void ThreadPool::Submit(std::function<void()> task, ErrorSink error_sink) {
  MC_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    MC_CHECK(!shutting_down_)
        << "ThreadPool::Submit() during or after pool destruction; the task "
           "would run on dead workers. All producers (including running "
           "tasks) must stop submitting before the pool is destroyed.";
    queue_.push_back(Task{std::move(task), std::move(error_sink)});
  }
  work_available_.notify_one();
}

Status ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  Status first = std::move(first_error_);
  first_error_ = Status::Ok();
  error_count_ = 0;
  return first;
}

size_t ThreadPool::error_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return error_count_;
}

void ThreadPool::RecordError(Status status) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (first_error_.ok()) first_error_ = std::move(status);
  ++error_count_;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting_down_ with no work left.
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    // Task boundary: exceptions stop here. A throwing task must neither
    // kill this worker (the pool would deadlock in Wait) nor unwind into
    // std::thread's terminate handler.
    Status failure;
    try {
      task.fn();
    } catch (const std::exception& e) {
      failure = Status::Internal(std::string("pool task threw: ") + e.what());
    } catch (...) {
      failure = Status::Internal("pool task threw a non-std exception");
    }
    if (!failure.ok()) {
      if (task.error_sink != nullptr) {
        task.error_sink(failure);
      } else {
        RecordError(std::move(failure));
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) all_idle_.notify_all();
    }
  }
}

}  // namespace mc
