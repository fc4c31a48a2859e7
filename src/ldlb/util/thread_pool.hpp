// Deterministic task pool for per-level certificate validation.
//
// The certificate validator (core/certificate.cpp) checks the levels of a
// chain independently, so it fans them out to a small fixed pool of worker
// threads; adversary steps and simulated runs execute on the calling
// thread. Two properties make this safe for a system whose output is a
// *byte-identical* certificate and an identical verdict:
//
//   * Deterministic join: `parallel_for` returns only after every task
//     finished, results are written into caller-owned index slots, and a
//     task's exception is rethrown in index order — the lowest-index
//     failure wins, exactly as in a serial left-to-right loop. Scheduling
//     order can vary between runs; observable behaviour cannot.
//
//   * One code path at any width: a 1-thread pool, a pool that could not
//     spawn its workers and a pool inherited across fork(2) all run the
//     tasks inline, in index order.
//
// The validator's per-level loop never re-enters the pool, and no caller
// cancels it: a cancelled run stops in the simulator or between levels.
//
// The pool size comes from the LDLB_THREADS environment variable (default:
// hardware concurrency), clamped to [1, 64]. `set_global_threads` rebuilds
// the global pool at runtime — tests use it to prove that 1-, 2- and
// 8-thread runs produce identical bytes. A pool of size 1 executes
// everything inline and spawns no threads at all. If the OS refuses to
// spawn workers (thread exhaustion), construction degrades to a serial
// pool instead of failing — see construction_error().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ldlb {

/// Fixed-size worker pool with a deterministic fork/join API.
class ThreadPool {
 public:
  /// Pool with `threads` workers (clamped to >= 1). A 1-thread pool spawns
  /// nothing and runs every task inline. If spawning workers fails with a
  /// system error the pool falls back to serial execution and records the
  /// failure in construction_error() instead of throwing.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of workers (>= 1); 1 means fully serial.
  [[nodiscard]] int size() const { return threads_; }

  /// Non-empty when construction could not spawn its workers and the pool
  /// degraded to serial execution (the diagnostic names the cause).
  [[nodiscard]] const std::string& construction_error() const {
    return construction_error_;
  }

  /// Runs `fn(i)` for i in [0, n) across the pool and waits for all of
  /// them. Exceptions are rethrown in index order (the lowest failing index
  /// wins), matching a serial loop. Must not be called from inside `fn`.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// The process-wide pool. First use sizes it from LDLB_THREADS (default:
  /// hardware concurrency, clamped to [1, 64]).
  static ThreadPool& global();

  /// Resizes the global pool (tests and tools; not thread-safe against
  /// concurrent global() users executing tasks). `threads` <= 0 restores
  /// the LDLB_THREADS / hardware default. A no-op in a forked child (see
  /// note_forked_child) — the inherited pool must not be torn down there.
  static void set_global_threads(int threads);

  /// Marks this process as a fork(2) child of a (possibly multithreaded)
  /// parent: the parent's pool workers do not exist here, so every
  /// parallel_for call runs inline from now on and global() hands out a
  /// private serial pool instead of the inherited (broken) one. Called by
  /// ipc::spawn_worker immediately after fork, before any other library
  /// call; irreversible for the life of the process.
  static void note_forked_child();

 private:
  struct Task {
    std::function<void()> run;
  };

  void worker_loop();

  int threads_;
  std::string construction_error_;
  std::vector<std::thread> workers_;
  // LIFO; tasks of one batch only.
  std::vector<Task> queue_;  // ldlb: guarded_by(mutex_)
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;  // ldlb: guarded_by(mutex_)
};

/// Shorthand for ThreadPool::global().
ThreadPool& global_pool();

}  // namespace ldlb
