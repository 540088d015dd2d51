#include "power/leakage_model.hpp"

#include "numeric/bits.hpp"

namespace reveal::power {

LeakageModel::LeakageModel(LeakageParams params) : params_(params) {
  // Fixed pseudo-random per-bit capacitance deviations: the same physical
  // device is used for profiling and attack, so these are constant.
  num::Xoshiro256StarStar rng(params_.bit_weight_seed);
  std::array<double, 32> bit_weights{};  // 1 + deviation per bus line
  for (double& w : bit_weights) {
    w = 1.0 + params_.bit_deviation * (2.0 * rng.uniform_double() - 1.0);
  }
  for (std::size_t k = 0; k < byte_weights_.size(); ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      double acc = 0.0;
      for (std::size_t bit = 0; bit < 8; ++bit) {
        if ((b >> bit) & 1) acc += bit_weights[8 * k + bit];
      }
      byte_weights_[k][b] = acc;
    }
  }
}

double LeakageModel::base_power(riscv::InstrClass klass) const noexcept {
  using riscv::InstrClass;
  switch (klass) {
    case InstrClass::kAlu: return params_.base_alu;
    case InstrClass::kAluImm: return params_.base_alu_imm;
    case InstrClass::kLoad: return params_.base_load;
    case InstrClass::kStore: return params_.base_store;
    case InstrClass::kBranch: return params_.base_branch;
    case InstrClass::kJump: return params_.base_jump;
    case InstrClass::kMul: return params_.base_mul;
    case InstrClass::kDiv: return params_.base_div;
    case InstrClass::kSystem: return params_.base_system;
  }
  return params_.base_system;
}

double LeakageModel::execute_cycle_power(const riscv::InstrEvent& event) const noexcept {
  double p = base_power(event.klass);
  if (event.rd_written) {
    p += params_.w_hd * num::hamming_distance(event.rd_old, event.rd_new);
    p += params_.w_hw * weighted_hw(event.rd_new);
  }
  if (event.is_mem_read || event.is_mem_write) {
    p += params_.w_mem * weighted_hw(event.mem_data);
  }
  return p;
}

void LeakageModel::append_samples(const riscv::InstrEvent& event,
                                  num::Xoshiro256StarStar& noise_rng,
                                  std::vector<double>& out) const {
  double level = base_power(event.klass);
  if (event.klass == riscv::InstrClass::kMul || event.klass == riscv::InstrClass::kDiv) {
    // Bit-serial datapath: the operands circulate through the
    // shift/accumulate registers on every one of the ~35 cycles.
    level += params_.w_serial * 0.5 *
             (weighted_hw(event.rs1_val) + weighted_hw(event.rs2_val));
  }
  const double exec = execute_cycle_power(event) + level - base_power(event.klass);
  // The result/bus write-back activity lands on the last cycle; earlier
  // cycles carry the fetch/decode/datapath level. A local sigma: stores into
  // `out` could otherwise alias params_ and force a reload per sample.
  const double sigma = params_.noise_sigma;
  for (std::uint32_t c = 0; c + 1 < event.cycles; ++c) {
    out.push_back(level + noise_rng.gaussian(0.0, sigma));
  }
  out.push_back(exec + noise_rng.gaussian(0.0, sigma));
}

}  // namespace reveal::power
