#include "sim/worker_pool.h"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.h"
#include "sim/engine.h"

namespace p3q {
namespace {

int ClampThreads(std::int64_t threads) {
  return static_cast<int>(std::clamp<std::int64_t>(
      threads, 1, static_cast<std::int64_t>(kEngineShards)));
}

}  // namespace

/// The pool threads: spawned once and fed one job per pooled ForEachItem
/// through an epoch counter, so a run pays the thread spawn cost once
/// instead of once per step (idle workers block on the condition variable
/// between jobs). Run() returns only after every worker finished the job,
/// even when the job throws: exceptions from any thread are captured and
/// the first one is rethrown on the calling thread after that barrier.
class WorkerPool::Workers {
 public:
  explicit Workers(int workers) {
    threads_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      threads_.emplace_back(
          [this, i] { Loop(static_cast<std::size_t>(i) + 1); });
    }
  }

  ~Workers() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  /// Runs `job` on every worker and the calling thread; returns when all
  /// workers are done with it.
  void Run(const Job& job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &job;
      finished_ = 0;
      error_ = nullptr;
      ++epoch_;
    }
    work_cv_.notify_all();
    std::exception_ptr caller_error;
    try {
      job(0);
    } catch (...) {
      caller_error = std::current_exception();
    }
    std::exception_ptr worker_error;
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [this] { return finished_ == threads_.size(); });
      worker_error = error_;
    }
    if (caller_error) std::rethrow_exception(caller_error);
    if (worker_error) std::rethrow_exception(worker_error);
  }

 private:
  void Loop(std::size_t worker) {
    std::uint64_t seen = 0;
    for (;;) {
      const Job* job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] { return stop_ || epoch_ > seen; });
        if (stop_) return;
        seen = epoch_;
        job = job_;
      }
      std::exception_ptr error;
      try {
        (*job)(worker);
      } catch (...) {
        error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (error != nullptr && error_ == nullptr) error_ = error;
        ++finished_;
      }
      done_cv_.notify_one();
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const Job* job_ = nullptr;
  std::exception_ptr error_;
  std::uint64_t epoch_ = 0;
  std::size_t finished_ = 0;
  bool stop_ = false;
};

WorkerPool::WorkerPool()
    : threads_(ClampThreads(GetEnvInt("P3Q_THREADS", 1))) {}

WorkerPool::~WorkerPool() = default;

void WorkerPool::SetThreads(int threads) {
  const int clamped = ClampThreads(threads);
  if (clamped != threads_) workers_.reset();  // respawned at the new count
  threads_ = clamped;
}

void WorkerPool::Run(const Job& job) {
  if (workers_ == nullptr) workers_ = std::make_unique<Workers>(threads_ - 1);
  workers_->Run(job);
}

}  // namespace p3q
