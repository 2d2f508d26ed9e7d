// The worker pool: the threads every parallel step of a system runs on.
//
// A P3QSystem owns one pool and lends it to both of its engines
// (sim/engine.h), and the eager mode runs its end of cycle on it
// (core/eager_protocol.h). Only one engine runs at a time, so a run at N
// threads holds N threads whichever mode runs. Callers keep their items
// independent of which thread runs them and in what order, so results are
// byte-identical for every thread count. The pool is not re-entrant:
// nothing it runs may call ForEachItem on it.
#ifndef P3Q_SIM_WORKER_POOL_H_
#define P3Q_SIM_WORKER_POOL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>

namespace p3q {

class WorkerPool {
 public:
  /// ForEachItem runs fewer items than this on the calling thread: waking
  /// the workers costs more than they save.
  static constexpr std::size_t kMinPooledItems = 16;

  /// Starts at the thread count the P3Q_THREADS environment variable names
  /// (default 1).
  WorkerPool();
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Threads, the calling thread included, clamped to [1, kEngineShards]
  /// so that lanes sized kEngineShards hold every worker. A new count stops
  /// the workers; the next ForEachItem that pools spawns them at it.
  void SetThreads(int threads);
  int threads() const { return threads_; }

  /// Runs fn(i, worker) once for every i in [0, n) and beside() once on the
  /// calling thread; `worker`, in [0, threads()), is 0 exactly on the
  /// calling thread. With more than one thread and at least kMinPooledItems
  /// items the workers take the items while the calling thread runs
  /// beside(), which then joins them; the call returns once every item ran,
  /// rethrowing the first exception any thread raised. Otherwise beside()
  /// runs first and then the items in order, on the calling thread, and an
  /// exception ends the call at once. Returns whether the workers took the
  /// items.
  template <class Fn, class Beside>
  bool ForEachItem(std::size_t n, const Fn& fn, const Beside& beside);
  template <class Fn>
  bool ForEachItem(std::size_t n, const Fn& fn) {
    return ForEachItem(n, fn, [] {});
  }

 private:
  class Workers;  // the pool threads and their loop (worker_pool.cc)
  /// A job receives its worker index: 0 on the calling thread, 1 and up on
  /// the pool threads.
  using Job = std::function<void(std::size_t worker)>;

  /// Runs `job` on every pool thread and on the calling thread, spawning
  /// the pool threads first if they are not running.
  void Run(const Job& job);

  int threads_;
  std::unique_ptr<Workers> workers_;
};

template <class Fn, class Beside>
bool WorkerPool::ForEachItem(std::size_t n, const Fn& fn,
                             const Beside& beside) {
  if (threads_ <= 1 || n < kMinPooledItems) {
    beside();
    for (std::size_t i = 0; i < n; ++i) fn(i, 0);
    return false;
  }
  std::atomic<std::size_t> next{0};
  Run([&](std::size_t worker) {
    if (worker == 0) beside();
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i, worker);
    }
  });
  return true;
}

}  // namespace p3q

#endif  // P3Q_SIM_WORKER_POOL_H_
