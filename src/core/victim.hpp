#pragma once
// The victim firmware: SEAL v3.2's set_poly_coeffs_normal re-authored as
// RV32IM machine code running on the simulated PicoRV32 target.
//
// Structure per coefficient (mirrors paper Fig. 2 line-for-line):
//   1. dist(engine): an integer clipped-Gaussian — sum of 12 uniforms drawn
//      by rejection (time-variant, like the resampling loop in SEAL's
//      ClippedNormalDistribution), scaled by a 35-cycle sequential multiply
//      (the "distinguishable and visible peak" of Fig. 3a) and rounded;
//      sigma = 3.19, values clipped to |v| <= 41 by a resample loop.
//   2. if (noise > 0)       -> store noise into every RNS component
//      else if (noise < 0)  -> negate, store modulus - noise
//      else                 -> store 0
//      (three distinct control-flow paths: vulnerability 1; the value
//      assignment: vulnerability 2; the negation: vulnerability 3).
//
// The host seeds the firmware's xorshift32 PRNG through a memory word and
// reads the produced polynomial back from memory after the run.

#include <cstdint>
#include <vector>

#include "riscv/machine.hpp"

namespace reveal::core {

struct VictimLayout {
  std::uint32_t code_base = 0x0000;
  std::uint32_t seed_addr = 0x7FF0;   ///< host writes the PRNG seed here
  std::uint32_t poly_base = 0x8000;   ///< n * coeff_mod_count words
  std::uint32_t perm_base = 0;        ///< shuffled firmware: n permutation words
  std::uint32_t mask_base = 0;        ///< masked firmware: second-share array
};

struct VictimProgram {
  std::vector<std::uint32_t> words;   ///< assembled firmware
  VictimLayout layout;
  std::size_t n = 0;                  ///< coefficients per polynomial
  std::size_t poly_count = 1;         ///< error polynomials sampled per run
  std::size_t coeff_mod_count = 0;
  std::vector<std::uint64_t> moduli;  ///< q_j values (must fit in 31 bits)
  std::uint32_t loop_pc = 0;          ///< address of the per-coefficient loop head
  std::uint32_t mul_pc = 0;           ///< address of the scaling multiply (burst)
  std::size_t memory_bytes = 0;       ///< required machine memory
  bool shuffled = false;              ///< processes coefficients in random order
  bool masked = false;                ///< stores arithmetic shares instead of values
};

/// Builds the sampler firmware for `n` coefficients over `moduli`.
/// n must be a power of two; every modulus must be < 2^31.
[[nodiscard]] VictimProgram build_sampler_firmware(std::size_t n,
                                                   const std::vector<std::uint64_t>& moduli);

/// SEAL v3.6-style patched firmware: identical sampling, but the sign
/// handling is branch-free (mask = noise >> 31; store noise + (mask & q_j)),
/// so all three sign cases execute the same instruction sequence — the
/// control-flow leak (vulnerability 1) and the negation (vulnerability 3)
/// are gone; only data-flow leakage remains (paper §V-A: "SEAL v3.6 and
/// later versions may have a different vulnerability").
[[nodiscard]] VictimProgram build_patched_firmware(std::size_t n,
                                                   const std::vector<std::uint64_t>& moduli);

/// Shuffling countermeasure (paper §V-A: "such defenses may involve
/// shuffling"): the firmware draws a Fisher-Yates permutation first, then
/// processes the coefficients in that random order. The per-window leakage
/// is unchanged, but the adversary no longer knows WHICH coefficient each
/// window belongs to — recovering only the multiset of e2 values, which
/// defeats Eq. (2)/(3) message recovery and positional DBDD hints.
[[nodiscard]] VictimProgram build_shuffled_firmware(std::size_t n,
                                                    const std::vector<std::uint64_t>& moduli);

/// Full-encryption firmware: samples BOTH error polynomials (e1 then e2)
/// back to back, like SEAL's Encryptor which calls set_poly_coeffs_normal
/// twice per encryption — one power trace covers 2n coefficient windows.
/// `VictimRun::noise` holds e1's n values followed by e2's.
[[nodiscard]] VictimProgram build_encryption_firmware(std::size_t n,
                                                      const std::vector<std::uint64_t>& moduli);

/// First-order masking "defense": every store writes a fresh arithmetic
/// share pair (r, value - r mod 2^32) instead of the value. The paper warns
/// masking is "susceptible against single-trace side-channel attacks"
/// (§V-A): the sign branches and the pre-store registers still process the
/// unmasked noise, so the control-flow leak is untouched and the
/// multivariate templates remain (weakly) effective against the shares.
[[nodiscard]] VictimProgram build_masked_firmware(std::size_t n,
                                                  const std::vector<std::uint64_t>& moduli);

/// CDT-sampler firmware (the related-work construction of refs [10]/[12]):
/// one PRNG draw per coefficient, then a cumulative-table scan. The leaky
/// variant's early-exit scan leaks the sampled value through pure timing;
/// the constant-time variant scans the whole table branchlessly. The
/// clip bound must stay at 41 for the shared ground-truth decoding.
[[nodiscard]] VictimProgram build_cdt_firmware(std::size_t n,
                                               const std::vector<std::uint64_t>& moduli,
                                               bool constant_time = false,
                                               double sigma = 3.19,
                                               double max_deviation = 41.0);

/// Ground-truth permutation of a completed shuffled run: slot -> coefficient
/// index (host-side only; the attacker never sees this). Throws if the
/// program is not a shuffled firmware.
[[nodiscard]] std::vector<std::uint32_t> read_permutation(const VictimProgram& program,
                                                          const riscv::Machine& machine);

/// Result of one firmware execution.
struct VictimRun {
  std::vector<std::int64_t> noise;  ///< ground-truth sampled values (signed)
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
};

namespace detail {
/// Instruction budget of one firmware run (generous: ~400 per coefficient).
[[nodiscard]] std::uint64_t victim_instruction_limit(const VictimProgram& program) noexcept;
/// Resets the machine, loads the firmware and writes the PRNG seed.
void prepare_victim_run(const VictimProgram& program, riscv::Machine& machine,
                        std::uint32_t seed);
/// Validates the stop reason and decodes the produced polynomial.
[[nodiscard]] VictimRun finish_victim_run(const VictimProgram& program,
                                          const riscv::Machine& machine,
                                          riscv::Machine::StopReason reason);
}  // namespace detail

/// Loads the firmware into `machine`, writes `seed`, runs to completion and
/// decodes the produced polynomial back into signed noise values.
/// Throws std::runtime_error on trap or instruction-limit overrun.
VictimRun run_victim(const VictimProgram& program, riscv::Machine& machine,
                     std::uint32_t seed, riscv::ExecutionObserver* observer = nullptr);

/// The victim simulator's two execution paths (DESIGN.md §6f). Both
/// produce byte-identical InstrEvent streams and machine state; only the
/// dispatch cost differs.
enum class VictimTier : std::uint8_t {
  kReference,  ///< decode-per-step (Machine::run_reference, the anchor)
  kBlock,      ///< basic-block translation, threaded dispatch (default)
};

/// Selects `machine`'s execution path for `tier` (idempotent and cheap —
/// safe to call before every run; warm translations are kept).
void configure_victim_tier(riscv::Machine& machine, VictimTier tier) noexcept;

/// run_victim pinned to an execution tier: kReference runs the
/// decode-per-step anchor loop, kBlock the block tier. Used by the bench
/// identity gate and the differential tests.
VictimRun run_victim_tier(const VictimProgram& program, riscv::Machine& machine,
                          std::uint32_t seed, VictimTier tier,
                          riscv::ExecutionObserver* observer = nullptr);

/// run_victim with a statically-bound observer: the capture hot path —
/// Machine::run_with fuses the observer callback into the execute loop, so
/// per-instruction virtual dispatch disappears. Byte-identical results.
template <typename ObserverT>
VictimRun run_victim_with(const VictimProgram& program, riscv::Machine& machine,
                          std::uint32_t seed, ObserverT& observer) {
  detail::prepare_victim_run(program, machine, seed);
  const auto reason = machine.run_with(detail::victim_instruction_limit(program), observer);
  return detail::finish_victim_run(program, machine, reason);
}

}  // namespace reveal::core
