#include "ldlb/util/thread_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <system_error>

namespace ldlb {

namespace {

// Set while a thread is inside ThreadPool::worker_loop; lets reentrant
// parallel_for calls detect that they are already on a worker and run inline.
thread_local const ThreadPool* tls_worker_pool = nullptr;

constexpr int kMaxThreads = 64;

int default_threads() {
  // ldlb-analyze: allow(determinism): selects the worker count only; the
  // merge order of parallel results is fixed, so certificate bytes do not
  // depend on parallelism (fleet determinism suite pins this).
  if (const char* s = std::getenv("LDLB_THREADS"); s != nullptr && *s != '\0') {
    int v = std::atoi(s);
    if (v >= 1) return std::min(v, kMaxThreads);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min(hw, unsigned{kMaxThreads}));
}

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;  // ldlb: guarded_by(g_pool_mutex)

// Set (single-threaded, before any further library call) in the child of a
// fork(2): the parent's worker threads do not exist there and any mutex a
// parent thread held at fork time is locked forever, so the child must
// neither wait on the inherited pool nor touch g_pool/g_pool_mutex again.
bool g_forked_child = false;

}  // namespace

ThreadPool::ThreadPool(int threads) : threads_(std::max(threads, 1)) {
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  // The calling thread participates in every batch, so n workers serve a
  // pool of size n+1; a 1-thread pool spawns nothing. A system refusing to
  // spawn (thread/PID exhaustion) degrades the pool to serial execution —
  // the library keeps working, just without speed-up.
  try {
    for (int i = 1; i < threads_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (const std::system_error& e) {
    construction_error_ = std::string("thread pool degraded to serial: "
                                      "spawning worker failed: ") +
                          e.what();
    {
      std::lock_guard<std::mutex> lk(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
    // ldlb-analyze: allow(locks): every worker is joined; no other thread
    // can observe this pool while its constructor is still running.
    stop_ = false;
    threads_ = 1;
    std::fprintf(stderr, "ldlb: %s\n", construction_error_.c_str());
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() const { return tls_worker_pool == this; }

void ThreadPool::worker_loop() {
  tls_worker_pool = this;
  std::unique_lock<std::mutex> lk(mutex_);
  for (;;) {
    wake_.wait(lk, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    Task task = std::move(queue_.back());
    queue_.pop_back();
    lk.unlock();
    task.run();
    lk.lock();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              CancellationToken* cancel) {
  if (n == 0) return;
  if (threads_ <= 1 || g_forked_child || on_worker_thread() || n == 1) {
    // Poll with the same chunk granularity the parallel path would use, so
    // cancellation latency does not depend on the thread count.
    constexpr std::size_t kSerialPollStride = 32;
    for (std::size_t i = 0; i < n; ++i) {
      if (cancel != nullptr && i % kSerialPollStride == 0) cancel->check();
      fn(i);
    }
    return;
  }
  // Contiguous chunks: the lowest failing chunk's first failure is exactly
  // the lowest failing index, preserving serial exception order.
  const std::size_t max_chunks =
      std::min(n, static_cast<std::size_t>(threads_) * 4);
  const std::size_t per = (n + max_chunks - 1) / max_chunks;
  const std::size_t chunks = (n + per - 1) / per;
  std::vector<std::exception_ptr> errors(chunks);
  struct Join {
    std::mutex m;
    std::condition_variable cv;
    std::size_t done = 0;  // ldlb: guarded_by(join.m)
  } join;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    for (std::size_t c = 0; c < chunks; ++c) {
      queue_.push_back(Task{[&, c] {
        // A pending cancel surfaces as the chunk's error, so the
        // lowest-index rule applies to cancellation as to any failure.
        try {
          if (cancel != nullptr) cancel->check();
          for (std::size_t i = c * per; i < std::min(n, (c + 1) * per); ++i) {
            fn(i);
          }
        } catch (...) {
          errors[c] = std::current_exception();
        }
        // Notify under the lock: the waiter destroys `join` as soon as it
        // observes done == chunks, so signalling after unlock would race
        // with the condition variable's destruction.
        std::lock_guard<std::mutex> g(join.m);
        ++join.done;
        join.cv.notify_one();
      }});
    }
  }
  wake_.notify_all();
  // The issuing thread drains the queue alongside the workers.
  for (;;) {
    std::unique_lock<std::mutex> lk(mutex_);
    if (queue_.empty()) break;
    Task task = std::move(queue_.back());
    queue_.pop_back();
    lk.unlock();
    task.run();
  }
  {
    std::unique_lock<std::mutex> lk(join.m);
    join.cv.wait(lk, [&join, chunks] { return join.done == chunks; });
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

ThreadPool& ThreadPool::global() {
  if (g_forked_child) {
    // g_pool_mutex may be locked forever by a parent thread that no longer
    // exists; hand out a private serial pool that never touches it. Leaked
    // deliberately: the child leaves via _exit and never joins anything.
    static ThreadPool* child_pool = new ThreadPool(1);
    return *child_pool;
  }
  std::lock_guard<std::mutex> lk(g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(default_threads());
  return *g_pool;
}

void ThreadPool::set_global_threads(int threads) {
  if (g_forked_child) return;  // the inherited pool must stay untouched
  std::lock_guard<std::mutex> lk(g_pool_mutex);
  g_pool = std::make_unique<ThreadPool>(
      threads <= 0 ? default_threads() : std::min(threads, kMaxThreads));
}

void ThreadPool::note_forked_child() { g_forked_child = true; }

ThreadPool& global_pool() { return ThreadPool::global(); }

}  // namespace ldlb
