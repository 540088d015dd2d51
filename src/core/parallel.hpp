#pragma once
// Deterministic worker pool for attack campaigns.
//
// Large profiling sweeps (hundreds of captures, each a full firmware
// simulation) are embarrassingly parallel, but a naive parallelization of a
// seeded pipeline silently breaks reproducibility: results start to depend
// on how the OS schedules worker threads. The two primitives here are
// designed so that parallel campaigns are *bit-identical* to serial ones:
//
//   * stream_seed: counter-based seed splitting. Every trace index gets its
//     own RNG stream derived from (base_seed, index) alone — never from
//     which worker ran it or in what order. For a fixed base the map
//     index -> seed is a bijection on uint64, so distinct trace indices can
//     never collide.
//
//   * WorkerPool: a fixed-size pool whose workers claim task indices from
//     one shared atomic cursor. A task may only write to its own index slot
//     (or to per-worker state that the caller later merges in a fixed
//     order), so the output is independent of which worker ran what.
//
// A pool constructed with 0 workers runs every task inline on the calling
// thread in index order — the serial reference path.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace reveal::core {

/// Hardware concurrency clamped to at least 1 (the value used when a
/// CampaignConfig leaves num_workers at "auto").
[[nodiscard]] std::size_t default_num_workers() noexcept;

/// Counter-based seed splitting (SplitMix64 finalizer over an odd-stride
/// counter). For a fixed `base_seed` the map `stream_index -> seed` is a
/// bijection on uint64: the stride 0x9E3779B97F4A7C15 is odd, so
/// base + stride*(index+1) is injective mod 2^64, and the SplitMix64
/// output function is a bijection. Distinct trace indices therefore never
/// yield colliding RNG streams, and the derived stream depends only on
/// (base_seed, index) — not on worker count or submission order.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t base_seed,
                                        std::uint64_t stream_index) noexcept;

class WorkerPool {
 public:
  /// `num_workers == 0`: no threads are spawned; run_indexed executes
  /// inline, sequentially, in index order (the serial path).
  explicit WorkerPool(std::size_t num_workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] std::size_t num_workers() const noexcept { return workers_.size(); }
  [[nodiscard]] bool serial() const noexcept { return workers_.empty(); }

  /// Runs `task(index, worker)` for every index in [0, count), each worker
  /// claiming the next unclaimed index, and returns only after every worker
  /// has left the job. `worker` is in [0, num_workers()) — or 0 in serial
  /// mode — and identifies the executing worker for per-worker accumulators.
  ///
  /// Determinism contract: a task must write only to state addressed by its
  /// `index` (or to per-worker state merged afterwards in a fixed order);
  /// under that contract the result is independent of scheduling.
  ///
  /// If tasks throw, the first recorded exception is rethrown on the
  /// calling thread after every worker has left the job; indices not yet
  /// claimed when a task threw are skipped, not executed.
  ///
  /// Must not be called from inside a task running on the same pool.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t, std::size_t)>& task);

 private:
  struct Shared;
  void worker_loop(std::size_t worker);

  std::unique_ptr<Shared> shared_;
  std::vector<std::thread> workers_;
};

}  // namespace reveal::core
