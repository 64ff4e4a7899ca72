// Minimal work-stealing-free thread pool for injection campaigns. The
// campaign engine pulls fixed-size chunks from a shared cursor
// (parallel_chunks).
//
// Since the serving layer landed, one pool is shared by concurrent
// campaigns: parallel_chunks waits on a per-call completion latch, not on
// the pool going globally idle, so two callers interleave their chunks
// fairly instead of each blocking until the other drains.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/types.h"

namespace vscrub {

class ThreadPool {
 public:
  /// `threads == 0` means hardware concurrency.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned thread_count() const { return static_cast<unsigned>(workers_.size()); }

  /// Enqueues a task. Tasks must not throw; wrap your own error channel.
  /// Returns false — with a logged warning, and without enqueuing — when the
  /// pool is shutting down or already shut down: a daemon draining while
  /// clients are still submitting must never race the destructor.
  bool submit(std::function<void()> task);

  /// Stops accepting work, runs every already-queued task, and joins the
  /// workers. Idempotent; called by the destructor.
  void shutdown();

  /// True once shutdown() has begun; submit() will refuse new work.
  bool stopping() const;

  /// Blocks until all submitted tasks have finished.
  void wait_idle();

  /// Chunked work-queue scheduling: [0, n) is cut into `chunk_size`-sized
  /// ranges and workers claim the next unclaimed chunk from a shared atomic
  /// cursor until none remain, so a chunk that happens to be expensive (a
  /// column dense with sensitive routing bits) delays only its own worker —
  /// everyone else keeps pulling.
  /// `worker` identifies the claiming task, 0 <= worker < chunk_workers(n,
  /// chunk_size), so callers can keep per-worker scratch state.
  /// Safe to call concurrently from several threads (each call waits on its
  /// own latch); on a stopped pool the chunks run inline on the caller.
  void parallel_chunks(
      u64 n, u64 chunk_size,
      const std::function<void(u64 begin, u64 end, unsigned worker)>& fn);

  /// Number of worker tasks parallel_chunks(n, chunk_size, ...) will spawn.
  unsigned chunk_workers(u64 n, u64 chunk_size) const;

 private:
  /// Per-call completion latch for parallel_chunks.
  struct Latch {
    std::mutex mutex;
    std::condition_variable cv;
    unsigned remaining = 0;

    void arrive() {
      std::lock_guard lock(mutex);
      if (--remaining == 0) cv.notify_all();
    }
    void wait() {
      std::unique_lock lock(mutex);
      cv.wait(lock, [this] { return remaining == 0; });
    }
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  mutable std::mutex mutex_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  u64 in_flight_ = 0;
  bool stop_ = false;
  bool joined_ = false;
};

}  // namespace vscrub
