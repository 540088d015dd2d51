#pragma once
// Glues the ISS observer interface to the leakage model, producing a power
// trace (one sample per core cycle), plus an optional marker stream used by
// tests and by ground-truth-aided debugging (never by the attack itself).
//
// A recorder is reusable across captures: begin_capture(noise_seed) reseeds
// the noise stream and resets the per-capture state while keeping buffer
// capacities (and registered watches), so a campaign runs an arbitrary
// number of captures through one recorder without reallocating. A fresh
// recorder and a reused one given the same seed produce bit-identical
// traces.

#include <cstdint>
#include <vector>

#include "numeric/rng.hpp"
#include "power/leakage_model.hpp"
#include "riscv/machine.hpp"

namespace reveal::power {

/// A labelled position in a recorded trace (host-side ground truth).
struct TraceMarker {
  std::uint64_t sample_index = 0;
  std::uint32_t pc = 0;
  std::uint32_t tag = 0;  ///< victim-defined (e.g. coefficient index)
};

class TraceRecorder final : public riscv::ExecutionObserver {
 public:
  /// `noise_seed` controls the measurement-noise stream for this capture.
  TraceRecorder(const LeakageModel& model, std::uint64_t noise_seed);

  void on_instruction(const riscv::InstrEvent& event) override;

  [[nodiscard]] const std::vector<double>& samples() const noexcept { return samples_; }

  /// Moves the recorded trace out. The recorder is left in a documented
  /// reusable state: samples and markers empty, watches retained. The noise
  /// RNG keeps its advanced position — call begin_capture() to reseed
  /// before recording a new trace whose noise must be reproducible.
  [[nodiscard]] std::vector<double> take_samples() noexcept;

  /// Rearms the recorder for a new capture: clears samples and markers
  /// (keeping their capacity) and reseeds the noise stream. Registered
  /// watches are preserved.
  void begin_capture(std::uint64_t noise_seed);

  /// Pre-sizes the internal buffers (e.g. from an instruction budget) so a
  /// capture appends without reallocating.
  void reserve(std::size_t samples, std::size_t markers = 0);

  /// Registers a pc to mark: whenever an instruction at `pc` retires, a
  /// marker with `tag` is appended (tag auto-increments if `increment`).
  void watch_pc(std::uint32_t pc, std::uint32_t tag, bool increment = false);
  [[nodiscard]] const std::vector<TraceMarker>& markers() const noexcept { return markers_; }

  void clear();

 private:
  struct Watch {
    std::uint32_t pc;
    std::uint32_t tag;
    std::uint32_t initial_tag;  ///< begin_capture() rewinds auto-increment tags
    bool increment;
  };

  const LeakageModel& model_;
  num::Xoshiro256StarStar noise_rng_;
  std::vector<double> samples_;
  std::vector<Watch> watches_;
  std::vector<TraceMarker> markers_;
};

}  // namespace reveal::power
