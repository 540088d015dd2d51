#include "core/victim.hpp"

#include <stdexcept>

#include "riscv/assembler.hpp"

namespace reveal::core {

namespace {

using namespace reveal::riscv;  // register names

bool is_power_of_two(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

int log2_exact(std::size_t v) {
  int l = 0;
  while ((std::size_t{1} << l) < v) ++l;
  return l;
}

// Integer Gaussian constants (see header): 12 uniforms below kUniformBound,
// centered by kCltMean, scaled by kScale / 2^24 => sigma = 3.19.
constexpr std::int32_t kUniformBound = 48000;
constexpr std::int32_t kCltMean = 6 * (kUniformBound - 1);  // 287994
constexpr std::int32_t kScale = 1115;
constexpr std::int32_t kClip = 41;  // paper: coefficients in [-41, 41]

}  // namespace

namespace {
VictimProgram build_firmware(std::size_t n, const std::vector<std::uint64_t>& moduli,
                             bool patched, bool shuffled, bool masked,
                             std::size_t poly_count = 1);
}

VictimProgram build_sampler_firmware(std::size_t n,
                                     const std::vector<std::uint64_t>& moduli) {
  return build_firmware(n, moduli, /*patched=*/false, /*shuffled=*/false,
                        /*masked=*/false);
}

VictimProgram build_patched_firmware(std::size_t n,
                                     const std::vector<std::uint64_t>& moduli) {
  return build_firmware(n, moduli, /*patched=*/true, /*shuffled=*/false,
                        /*masked=*/false);
}

VictimProgram build_shuffled_firmware(std::size_t n,
                                      const std::vector<std::uint64_t>& moduli) {
  return build_firmware(n, moduli, /*patched=*/false, /*shuffled=*/true,
                        /*masked=*/false);
}

std::vector<std::uint32_t> read_permutation(const VictimProgram& program,
                                            const riscv::Machine& machine) {
  if (!program.shuffled)
    throw std::invalid_argument("read_permutation: firmware is not shuffled");
  std::vector<std::uint32_t> perm(program.n);
  for (std::size_t i = 0; i < program.n; ++i) {
    perm[i] = machine.load_word(program.layout.perm_base +
                                static_cast<std::uint32_t>(4 * i));
  }
  return perm;
}

VictimProgram build_masked_firmware(std::size_t n,
                                    const std::vector<std::uint64_t>& moduli) {
  return build_firmware(n, moduli, /*patched=*/false, /*shuffled=*/false,
                        /*masked=*/true);
}

VictimProgram build_encryption_firmware(std::size_t n,
                                        const std::vector<std::uint64_t>& moduli) {
  return build_firmware(n, moduli, /*patched=*/false, /*shuffled=*/false,
                        /*masked=*/false, /*poly_count=*/2);
}

namespace {
VictimProgram build_firmware(std::size_t n, const std::vector<std::uint64_t>& moduli,
                             bool patched, bool shuffled, bool masked,
                             std::size_t poly_count) {
  if (!is_power_of_two(n)) throw std::invalid_argument("victim: n must be a power of two");
  if (moduli.empty()) throw std::invalid_argument("victim: need at least one modulus");
  for (const std::uint64_t q : moduli) {
    if (q == 0 || q >= (std::uint64_t{1} << 31))
      throw std::invalid_argument("victim: moduli must fit in 31 bits");
  }

  if (poly_count < 1 || poly_count > 4)
    throw std::invalid_argument("victim: poly_count must be in [1, 4]");
  VictimProgram prog;
  prog.n = n;
  prog.poly_count = poly_count;
  prog.coeff_mod_count = moduli.size();
  prog.moduli = moduli;
  prog.shuffled = shuffled;
  prog.masked = masked;
  prog.layout.perm_base =
      prog.layout.poly_base +
      static_cast<std::uint32_t>(4 * n * moduli.size() * poly_count);
  prog.layout.mask_base =
      prog.layout.perm_base + static_cast<std::uint32_t>(4 * n);
  prog.memory_bytes =
      prog.layout.mask_base + 4 * n * moduli.size() + 4096;

  const int row_shift = log2_exact(n) + 2;  // byte stride of one RNS row

  Assembler as(prog.layout.code_base);

  // Register plan:
  //   s0 = i             s1 = n               s2 = &poly[0] (current poly)
  //   s3 = rng state     s4 = coeff_mod_count s5 = &qtable[0]
  //   s6 = uniform bound s7 = scale           s8 = clip bound
  //   s9 = &perm[0] (shuffled)   s10 = share-array offset (masked)
  //   s11 = polys remaining      a0 = noise   t0..t6 = scratch
  as.j("start");
  as.label("qtable");
  for (const std::uint64_t q : moduli) as.word(static_cast<std::uint32_t>(q));

  as.label("start");
  as.li(s1, static_cast<std::int32_t>(n));
  as.li(s2, static_cast<std::int32_t>(prog.layout.poly_base));
  as.li(t0, static_cast<std::int32_t>(prog.layout.seed_addr));
  as.lw(s3, 0, t0);  // host-provided PRNG seed
  as.li(s4, static_cast<std::int32_t>(moduli.size()));
  as.la(s5, "qtable");
  as.li(s6, kUniformBound);
  as.li(s7, kScale);
  as.li(s8, kClip);
  if (masked) {
    // Offset from a coefficient's poly slot to its second-share slot.
    as.li(s10, static_cast<std::int32_t>(prog.layout.mask_base -
                                         prog.layout.poly_base));
  }
  if (shuffled) {
    // Fisher-Yates permutation over the coefficient indices, drawn from the
    // same on-device PRNG. Happens before the first sampling window.
    as.li(s9, static_cast<std::int32_t>(prog.layout.perm_base));
    as.li(t1, 0);
    as.label("perm_init");
    as.bge(t1, s1, "perm_fy");
    as.slli(t2, t1, 2);
    as.add(t2, t2, s9);
    as.sw(t1, 0, t2);
    as.addi(t1, t1, 1);
    as.j("perm_init");
    as.label("perm_fy");
    as.addi(t1, s1, -1);  // i = n-1
    as.label("perm_loop");
    as.bge(zero, t1, "perm_done");  // while i > 0
    // xorshift32 step
    as.slli(t2, s3, 13);
    as.xor_(s3, s3, t2);
    as.srli(t2, s3, 17);
    as.xor_(s3, s3, t2);
    as.slli(t2, s3, 5);
    as.xor_(s3, s3, t2);
    // j = rand % (i+1)  (the remu's long division is pre-window activity)
    as.addi(t2, t1, 1);
    as.remu(t3, s3, t2);
    // swap perm[i] <-> perm[j]
    as.slli(t4, t1, 2);
    as.add(t4, t4, s9);
    as.lw(t5, 0, t4);
    as.slli(t6, t3, 2);
    as.add(t6, t6, s9);
    as.lw(t0, 0, t6);
    as.sw(t0, 0, t4);
    as.sw(t5, 0, t6);
    as.addi(t1, t1, -1);
    as.j("perm_loop");
    as.label("perm_done");
  }
  as.li(s11, static_cast<std::int32_t>(poly_count));
  as.li(s0, 0);

  prog.loop_pc = as.here();
  as.label("loop_i");
  as.bge(s0, s1, "done");

  // ---- dist(engine): integer clipped Gaussian --------------------------
  as.label("gauss");
  as.li(t0, 0);   // acc
  as.li(t1, 12);  // CLT draw counter
  as.label("draw");
  // xorshift32 PRNG
  as.slli(t2, s3, 13);
  as.xor_(s3, s3, t2);
  as.srli(t2, s3, 17);
  as.xor_(s3, s3, t2);
  as.slli(t2, s3, 5);
  as.xor_(s3, s3, t2);
  // candidate = state & 0xFFFF; reject >= bound (time-variant, like the
  // resample loop in ClippedNormalDistribution)
  as.lui(t3, 0x10);
  as.addi(t3, t3, -1);  // 0xFFFF
  as.and_(t2, s3, t3);
  as.bgeu(t2, s6, "draw");
  as.add(t0, t0, t2);
  as.addi(t1, t1, -1);
  as.bnez(t1, "draw");
  // centered = acc - mean
  as.li(t4, kCltMean);
  as.sub(t0, t0, t4);
  // noise = (centered * scale + 2^23) >> 24   -- the 35-cycle burst
  prog.mul_pc = as.here();
  as.mul(t5, t0, s7);
  as.lui(t6, 0x800);  // 2^23 rounding bias
  as.add(t5, t5, t6);
  as.srai(a0, t5, 24);
  // clip: resample if |noise| > 41 (branch-free abs, faithful to the
  // max_deviation check; never taken with these constants)
  as.srai(t2, a0, 31);
  as.xor_(t3, a0, t2);
  as.sub(t3, t3, t2);  // |noise|
  as.blt(s8, t3, "gauss");

  // ---- sign-bit assignment ---------------------------------------------
  if (shuffled) {
    // The slot's target coefficient index comes from the permutation table.
    as.slli(t0, s0, 2);
    as.add(t0, t0, s9);
    as.lw(t0, 0, t0);   // perm[slot]
    as.slli(t0, t0, 2);
    as.add(t0, t0, s2); // &poly[perm[slot]] (row 0)
  } else {
    as.slli(t0, s0, 2);
    as.add(t0, t0, s2);  // &poly[i] (row 0)
  }
  if (patched) {
    // v3.6-style branch-free select: every sign case runs these exact
    // instructions; the stored value is noise + (sign_mask & q_j).
    as.srai(t2, a0, 31);  // all-ones iff noise < 0
    as.li(t1, 0);
    as.label("patched_j");
    as.bge(t1, s4, "end_i");
    as.slli(t3, t1, 2);
    as.add(t3, t3, s5);
    as.lw(t4, 0, t3);         // q_j
    as.and_(t5, t2, t4);      // mask & q_j
    as.add(t5, t5, a0);       // noise (+ q_j if negative)
    as.slli(t3, t1, static_cast<std::uint32_t>(row_shift));
    as.add(t3, t3, t0);
    as.sw(t5, 0, t3);
    as.addi(t1, t1, 1);
    as.j("patched_j");
    as.j("end_i");  // unreachable; keeps the layout obvious
  }
  if (!patched) {
  as.bgtz(a0, "branch_pos");   // if (noise > 0)
  as.bltz(a0, "branch_neg");   // else if (noise < 0)
  // else: zero branch
  as.li(t1, 0);
  as.label("zero_j");
  as.bge(t1, s4, "end_i");
  as.slli(t2, t1, static_cast<std::uint32_t>(row_shift));
  as.add(t2, t2, t0);
  if (masked) {
    as.slli(t3, s3, 13);
    as.xor_(s3, s3, t3);
    as.srli(t3, s3, 17);
    as.xor_(s3, s3, t3);
    as.slli(t3, s3, 5);
    as.xor_(s3, s3, t3);
    as.sub(t4, zero, s3);      // share2 = -r
    as.sw(s3, 0, t2);
    as.add(t3, t2, s10);
    as.sw(t4, 0, t3);
  } else {
    as.sw(zero, 0, t2);          // poly[i + j*n] = 0
  }
  as.addi(t1, t1, 1);
  as.j("zero_j");

  as.label("branch_pos");
  as.li(t1, 0);
  as.label("pos_j");
  as.bge(t1, s4, "end_i");
  as.slli(t2, t1, static_cast<std::uint32_t>(row_shift));
  as.add(t2, t2, t0);
  if (masked) {
    // Fresh mask r; store (r, noise - r).
    as.slli(t3, s3, 13);
    as.xor_(s3, s3, t3);
    as.srli(t3, s3, 17);
    as.xor_(s3, s3, t3);
    as.slli(t3, s3, 5);
    as.xor_(s3, s3, t3);
    as.sub(t4, a0, s3);        // share2 = noise - r (mod 2^32)
    as.sw(s3, 0, t2);          // poly slot holds the mask
    as.add(t3, t2, s10);
    as.sw(t4, 0, t3);          // shadow array holds the other share
  } else {
    as.sw(a0, 0, t2);          // poly[i + j*n] = noise
  }
  as.addi(t1, t1, 1);
  as.j("pos_j");

  as.label("branch_neg");
  as.neg(a0, a0);              // noise = -noise  (vulnerability 3)
  as.li(t1, 0);
  as.label("neg_j");
  as.bge(t1, s4, "end_i");
  as.slli(t3, t1, 2);
  as.add(t3, t3, s5);
  as.lw(t4, 0, t3);            // q_j
  as.sub(t5, t4, a0);          // q_j - noise
  as.slli(t2, t1, static_cast<std::uint32_t>(row_shift));
  as.add(t2, t2, t0);
  if (masked) {
    as.slli(t3, s3, 13);
    as.xor_(s3, s3, t3);
    as.srli(t3, s3, 17);
    as.xor_(s3, s3, t3);
    as.slli(t3, s3, 5);
    as.xor_(s3, s3, t3);
    as.sub(t4, t5, s3);        // share2 = (q_j - noise) - r
    as.sw(s3, 0, t2);
    as.add(t3, t2, s10);
    as.sw(t4, 0, t3);
  } else {
    as.sw(t5, 0, t2);            // poly[i + j*n] = q_j - noise
  }
  as.addi(t1, t1, 1);
  as.j("neg_j");
  }  // !patched

  as.label("end_i");
  as.addi(s0, s0, 1);
  as.j("loop_i");

  as.label("done");
  // Next error polynomial (SEAL's Encryptor samples e1 then e2): advance
  // the poly base and restart the coefficient loop.
  as.addi(s11, s11, -1);
  as.beqz(s11, "coda");
  as.li(t0, static_cast<std::int32_t>(4 * n * moduli.size()));
  as.add(s2, s2, t0);
  as.li(s0, 0);
  as.j("loop_i");

  as.label("coda");
  // Coda: on the real target execution continues after the sampler (the
  // encryptor's next step), so the final coefficient's window is not
  // truncated. Mirror the uniform-draw activity without a multiply so the
  // segmentation still sees exactly n bursts.
  as.li(t0, 0);
  as.li(t1, 12);
  as.label("coda_draw");
  as.slli(t2, s3, 13);
  as.xor_(s3, s3, t2);
  as.srli(t2, s3, 17);
  as.xor_(s3, s3, t2);
  as.slli(t2, s3, 5);
  as.xor_(s3, s3, t2);
  as.lui(t3, 0x10);
  as.addi(t3, t3, -1);
  as.and_(t2, s3, t3);
  as.bgeu(t2, s6, "coda_draw");
  as.add(t0, t0, t2);
  as.addi(t1, t1, -1);
  as.bnez(t1, "coda_draw");
  as.ebreak();

  prog.words = as.assemble();
  return prog;
}
}  // namespace

namespace detail {

std::uint64_t victim_instruction_limit(const VictimProgram& program) noexcept {
  return 2000ULL * program.n * program.poly_count + 10000ULL;
}

void prepare_victim_run(const VictimProgram& program, riscv::Machine& machine,
                        std::uint32_t seed) {
  if (seed == 0) throw std::invalid_argument("run_victim: xorshift seed must be nonzero");
  machine.reset();
  machine.load_program(program.words, program.layout.code_base);
  machine.store_word(program.layout.seed_addr, seed);
}

VictimRun finish_victim_run(const VictimProgram& program, const riscv::Machine& machine,
                            riscv::Machine::StopReason reason) {
  if (reason == riscv::Machine::StopReason::kTrap)
    throw std::runtime_error("run_victim: machine trapped: " + machine.trap_message());
  if (reason == riscv::Machine::StopReason::kInstrLimit)
    throw std::runtime_error("run_victim: instruction limit exceeded");

  VictimRun out;
  out.cycles = machine.cycle_count();
  out.instructions = machine.retired_count();
  out.noise.resize(program.n * program.poly_count);
  const std::uint64_t q0 = program.moduli[0];
  const std::size_t poly_stride = program.n * program.coeff_mod_count;
  std::size_t i = 0;
  for (std::size_t p = 0; p < program.poly_count; ++p) {    // error polynomial
    for (std::size_t c = 0; c < program.n; ++c, ++i) {      // coefficient
      std::uint32_t raw = machine.load_word(
          program.layout.poly_base +
          static_cast<std::uint32_t>(4 * (p * poly_stride + c)));
      if (program.masked) {
        // Recombine the arithmetic shares (host-side ground truth only).
        const std::uint32_t share2 = machine.load_word(
            program.layout.mask_base + static_cast<std::uint32_t>(4 * i));
        raw += share2;  // mod 2^32
      }
      if (raw == 0) out.noise[i] = 0;
      else if (raw <= static_cast<std::uint32_t>(kClip)) out.noise[i] = raw;
      else out.noise[i] = -static_cast<std::int64_t>(q0 - raw);
    }
  }
  return out;
}

}  // namespace detail

VictimRun run_victim(const VictimProgram& program, riscv::Machine& machine,
                     std::uint32_t seed, riscv::ExecutionObserver* observer) {
  detail::prepare_victim_run(program, machine, seed);
  const auto reason = machine.run(detail::victim_instruction_limit(program), observer);
  return detail::finish_victim_run(program, machine, reason);
}

void configure_victim_tier(riscv::Machine& machine, VictimTier tier) noexcept {
  machine.set_block_tier(tier == VictimTier::kBlock);
}

VictimRun run_victim_tier(const VictimProgram& program, riscv::Machine& machine,
                          std::uint32_t seed, VictimTier tier,
                          riscv::ExecutionObserver* observer) {
  configure_victim_tier(machine, tier);
  if (tier == VictimTier::kReference) {
    detail::prepare_victim_run(program, machine, seed);
    const auto reason =
        machine.run_reference(detail::victim_instruction_limit(program), observer);
    return detail::finish_victim_run(program, machine, reason);
  }
  return run_victim(program, machine, seed, observer);
}

}  // namespace reveal::core
