#pragma once
// First-order CMOS power model.
//
// Each executed instruction contributes `cycles` samples. The sample at the
// instruction's "execute" cycle carries the data-dependent component:
//
//   p = base(class)
//     + w_hd * HD(rd_old, rd_new)          (register file update toggles)
//     + w_hw * WHW(rd_new)                 (result bus weight)
//     + w_mem * WHW(mem_data)              (data memory bus)
//     + N(0, sigma_noise)                  (measurement noise)
//
// WHW is a *weighted* Hamming weight: each bit line has capacitance
// 1 + epsilon_b with small fixed per-bit deviations — this is what makes
// values inside one Hamming-weight class weakly distinguishable, matching
// the structure of the paper's Table I (e.g. template "1" preferred over
// "2" for true value 1 even though HW(1)=HW(2)).
//
// Remaining cycles of a multi-cycle instruction emit base-level samples
// (plus noise), which preserves the timing structure the segmentation step
// relies on (Fig. 3a).

#include <array>
#include <cstdint>

#include "numeric/rng.hpp"
#include "riscv/machine.hpp"

namespace reveal::power {

struct LeakageParams {
  // Data-dependent modulation is a small signal riding on the much larger
  // instruction-level power (realistic SNR; the template attack needs many
  // profiling traces exactly as on the SAKURA-G target).
  double w_hd = 0.06;         ///< weight of register Hamming distance
  double w_hw = 0.15;         ///< weight of result weighted Hamming weight
  double w_mem = 0.25;        ///< weight of memory-bus weighted Hamming weight
  double w_serial = 0.10;     ///< per-cycle operand activity of the serial mul/div
  double bit_deviation = 0.08;///< relative per-bit capacitance spread
  double noise_sigma = 0.15;  ///< additive Gaussian measurement noise (std)
  /// Random-walk step of the slow baseline wander (supply/temperature
  /// drift); 0 disables. Applied per sample by the TraceRecorder.
  double drift_sigma = 0.0;
  std::uint64_t bit_weight_seed = 0xB17C0FFEEULL;  ///< fixes the bit weights

  /// Per-class static/base power (fetch + control activity). The bit-serial
  /// multiplier/divider datapath keeps toggling every cycle, which is what
  /// makes the distribution call a visible burst (paper Fig. 3a).
  double base_alu = 4.0;
  double base_alu_imm = 4.0;
  double base_load = 5.0;
  double base_store = 5.5;
  double base_branch = 4.5;
  double base_jump = 5.0;
  double base_mul = 12.0;
  double base_div = 12.0;
  double base_system = 3.0;
};

/// Computes noiseless and noisy per-cycle power values for instruction
/// events. Stateless w.r.t. traces; the noise RNG is supplied per call so
/// campaigns control determinism.
class LeakageModel {
 public:
  explicit LeakageModel(LeakageParams params = LeakageParams{});

  [[nodiscard]] const LeakageParams& params() const noexcept { return params_; }

  /// Weighted Hamming weight with the model's per-bit capacitances: one
  /// table lookup per byte, (t0[b0] + t1[b1]) + (t2[b2] + t3[b3]).
  [[nodiscard]] double weighted_hw(std::uint32_t value) const noexcept {
    return (byte_weights_[0][value & 0xFF] + byte_weights_[1][(value >> 8) & 0xFF]) +
           (byte_weights_[2][(value >> 16) & 0xFF] + byte_weights_[3][value >> 24]);
  }

  /// Base power of an instruction class.
  [[nodiscard]] double base_power(riscv::InstrClass klass) const noexcept;

  /// Noiseless data-dependent power of the execute cycle of `event`.
  [[nodiscard]] double execute_cycle_power(const riscv::InstrEvent& event) const noexcept;

  /// Appends all `event.cycles` samples (noisy) to `out`.
  void append_samples(const riscv::InstrEvent& event, num::Xoshiro256StarStar& noise_rng,
                      std::vector<double>& out) const;

 private:
  LeakageParams params_;
  /// byte_weights_[k][b]: the summed per-bit capacitances (1 + deviation)
  /// of the bus lines set in byte k = b.
  std::array<std::array<double, 256>, 4> byte_weights_{};
};

}  // namespace reveal::power
