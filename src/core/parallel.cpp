#include "core/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>

#include "numeric/rng.hpp"

namespace reveal::core {

std::size_t default_num_workers() noexcept {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

std::uint64_t stream_seed(std::uint64_t base_seed, std::uint64_t stream_index) noexcept {
  // Odd-stride counter keeps the pre-image injective in the index; the
  // SplitMix64 output function then bijectively scrambles it. `index + 1`
  // decorrelates stream 0 from the raw base seed.
  std::uint64_t state = base_seed + 0x9E3779B97F4A7C15ULL * (stream_index + 1);
  return num::splitmix64(state);
}

struct WorkerPool::Shared {
  std::mutex mu;                    // guards the plain fields below; tasks run unlocked
  std::condition_variable work_cv;  // workers: a new job or shutdown
  std::condition_variable done_cv;  // caller: the last worker left the job
  std::uint64_t generation = 0;
  bool shutdown = false;

  const std::function<void(std::size_t, std::size_t)>* task = nullptr;
  std::size_t count = 0;
  std::size_t busy = 0;              // workers that have not yet left the job
  std::exception_ptr error;
  std::atomic<std::size_t> next{0};  // the next index to hand out
  std::atomic<bool> failed{false};   // a task threw: hand out no more indices
};

WorkerPool::WorkerPool(std::size_t num_workers) : shared_(std::make_unique<Shared>()) {
  workers_.reserve(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->shutdown = true;
  }
  shared_->work_cv.notify_all();
  for (std::thread& t : workers_) t.join();
}

void WorkerPool::worker_loop(std::size_t worker) {
  Shared& s = *shared_;
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(s.mu);
      s.work_cv.wait(lock, [&] { return s.shutdown || s.generation != seen; });
      if (s.shutdown) return;
      seen = s.generation;
    }
    // Every worker claims the next unclaimed index until the cursor passes
    // the end. A campaign task is a whole capture, so one atomic add per
    // index costs nothing next to it.
    std::size_t i = 0;
    while (!s.failed.load() && (i = s.next.fetch_add(1)) < s.count) {
      try {
        (*s.task)(i, worker);
      } catch (...) {
        std::lock_guard<std::mutex> lock(s.mu);
        if (!s.error) s.error = std::current_exception();
        s.failed.store(true);
      }
    }
    std::lock_guard<std::mutex> lock(s.mu);
    if (--s.busy == 0) s.done_cv.notify_all();
  }
}

void WorkerPool::run_indexed(std::size_t count,
                             const std::function<void(std::size_t, std::size_t)>& task) {
  if (count == 0) return;
  if (serial()) {
    for (std::size_t i = 0; i < count; ++i) task(i, 0);
    return;
  }

  Shared& s = *shared_;
  std::unique_lock<std::mutex> lock(s.mu);
  s.task = &task;
  s.count = count;
  s.busy = workers_.size();
  s.error = nullptr;
  s.next.store(0);
  s.failed.store(false);
  ++s.generation;
  s.work_cv.notify_all();
  s.done_cv.wait(lock, [&] { return s.busy == 0; });
  s.task = nullptr;
  std::exception_ptr error = s.error;
  s.error = nullptr;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

}  // namespace reveal::core
