#include "common/thread_pool.h"

#include <algorithm>

#include "common/log.h"

namespace vscrub {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
    if (joined_) return;
    joined_ = true;
  }
  cv_task_.notify_all();
  for (auto& t : workers_) t.join();
}

bool ThreadPool::stopping() const {
  std::lock_guard lock(mutex_);
  return stop_;
}

bool ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    if (stop_) {
      VSCRUB_WARN("thread_pool: submit() on a stopped pool; task dropped");
      return false;
    }
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
  return true;
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
}

unsigned ThreadPool::chunk_workers(u64 n, u64 chunk_size) const {
  if (n == 0) return 0;
  chunk_size = std::max<u64>(1, chunk_size);
  const u64 nchunks = (n + chunk_size - 1) / chunk_size;
  return static_cast<unsigned>(std::min<u64>(nchunks, thread_count()));
}

void ThreadPool::parallel_chunks(
    u64 n, u64 chunk_size,
    const std::function<void(u64, u64, unsigned)>& fn) {
  if (n == 0) return;
  chunk_size = std::max<u64>(1, chunk_size);
  const u64 nchunks = (n + chunk_size - 1) / chunk_size;
  std::atomic<u64> cursor{0};
  const unsigned tasks = chunk_workers(n, chunk_size);
  const auto drain_cursor = [&cursor, &fn, n, nchunks, chunk_size](unsigned w) {
    for (;;) {
      const u64 c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= nchunks) return;
      const u64 begin = c * chunk_size;
      fn(begin, std::min(n, begin + chunk_size), w);
    }
  };
  Latch latch;
  latch.remaining = tasks;
  unsigned queued = 0;
  for (unsigned w = 0; w < tasks; ++w) {
    // &cursor / &latch / &fn outlive the tasks: latch.wait() below blocks
    // until every queued task has drained the cursor and arrived.
    if (submit([&drain_cursor, &latch, w] {
          drain_cursor(w);
          latch.arrive();
        })) {
      ++queued;
    } else {
      // Stopped pool: the caller's thread finishes the remaining chunks.
      drain_cursor(w);
      latch.arrive();
    }
  }
  if (queued > 0) latch.wait();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace vscrub
