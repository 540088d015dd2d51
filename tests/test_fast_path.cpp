// Differential tests of the hot-path optimizations against their reference
// implementations — the contract of this codebase's perf work is that every
// fast path is *byte-identical* to the code it replaced:
//
//   * the block-translated execution tier (DESIGN.md §6f) vs the
//     decode-per-step virtually-dispatched loop (Machine::run_reference):
//     random and sampler-shaped programs (aliased registers included),
//     self-modifying stores that split or invalidate translated blocks
//     (including from inside the executing block), branches into block
//     middles, invalid encodings at block tails, instruction limits
//     expiring mid-block, and tier toggling mid-execution;
//   * shared-work template scoring (one Sigma^{-1} x matvec per
//     observation) vs an in-test mirror of the documented kernel loop
//     order (exact double equality) and vs the pre-factorization
//     per-class loops (tolerance);
//   * the allocation-free capture pipeline (capture_into with a persistent
//     recorder) vs fresh-object capture().

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/acquisition.hpp"
#include "numeric/distributions.hpp"
#include "numeric/matrix.hpp"
#include "numeric/rng.hpp"
#include "riscv/assembler.hpp"
#include "riscv/machine.hpp"
#include "sca/template_attack.hpp"

using namespace reveal;

namespace {

constexpr std::size_t kMemBytes = 64 * 1024;
constexpr std::uint32_t kDataBase = 0x2000;
constexpr std::uint64_t kInstrLimit = 5000;

// --------------------------------------------------------------------------
// Randomized RV32IM program generation
// --------------------------------------------------------------------------

/// addi x7, x0, 2 — the word the self-modifying programs store over a
/// patchable addi x7, x0, 1 slot.
constexpr std::uint32_t kPatchWord = 0x00200393u;

std::vector<std::uint32_t> random_program(num::Xoshiro256StarStar& rng, bool self_modify) {
  riscv::Assembler as(0);
  using riscv::Reg;
  const auto reg = [&]() { return static_cast<Reg>(5 + rng() % 11); };  // x5..x15

  as.li(Reg::x5, static_cast<std::int32_t>(kDataBase));
  for (int r = 6; r <= 15; ++r) {
    as.li(static_cast<Reg>(r), static_cast<std::int32_t>(rng() % 4096) - 2048);
  }

  if (self_modify) {
    // Store either a valid patch instruction or arbitrary register content
    // (usually an invalid encoding — both executions must then trap
    // identically) over the "patch" slot below.
    if (rng() % 2 == 0) {
      as.li(Reg::x16, static_cast<std::int32_t>(kPatchWord));
    } else {
      as.mv(Reg::x16, reg());
    }
    as.la(Reg::x17, "patch");
    as.sw(Reg::x16, 0, Reg::x17);
  }

  // Forward-only control flow keeps every program terminating; the
  // instruction limit would catch a runaway anyway (and both executions
  // must agree on kInstrLimit too).
  int next_label = 0;
  std::vector<std::pair<std::string, int>> pending;  // label -> instrs until placement
  const std::size_t body = 40 + rng() % 60;
  for (std::size_t i = 0; i < body; ++i) {
    for (auto it = pending.begin(); it != pending.end();) {
      if (--it->second <= 0) {
        as.label(it->first);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
    switch (rng() % 12) {
      case 0:
      case 1:
      case 2: {
        const Reg rd = reg(), rs1 = reg(), rs2 = reg();
        switch (rng() % 10) {
          case 0: as.add(rd, rs1, rs2); break;
          case 1: as.sub(rd, rs1, rs2); break;
          case 2: as.xor_(rd, rs1, rs2); break;
          case 3: as.and_(rd, rs1, rs2); break;
          case 4: as.or_(rd, rs1, rs2); break;
          case 5: as.sll(rd, rs1, rs2); break;
          case 6: as.srl(rd, rs1, rs2); break;
          case 7: as.sra(rd, rs1, rs2); break;
          case 8: as.slt(rd, rs1, rs2); break;
          default: as.sltu(rd, rs1, rs2); break;
        }
        break;
      }
      case 3:
      case 4: {
        const Reg rd = reg(), rs1 = reg(), rs2 = reg();
        switch (rng() % 8) {
          case 0: as.mul(rd, rs1, rs2); break;
          case 1: as.mulh(rd, rs1, rs2); break;
          case 2: as.mulhsu(rd, rs1, rs2); break;
          case 3: as.mulhu(rd, rs1, rs2); break;
          case 4: as.div(rd, rs1, rs2); break;  // div-by-zero is defined, no trap
          case 5: as.divu(rd, rs1, rs2); break;
          case 6: as.rem(rd, rs1, rs2); break;
          default: as.remu(rd, rs1, rs2); break;
        }
        break;
      }
      case 5:
      case 6: {
        const Reg rd = reg(), rs1 = reg();
        const auto imm = static_cast<std::int32_t>(rng() % 4096) - 2048;
        switch (rng() % 6) {
          case 0: as.addi(rd, rs1, imm); break;
          case 1: as.xori(rd, rs1, imm); break;
          case 2: as.ori(rd, rs1, imm); break;
          case 3: as.andi(rd, rs1, imm); break;
          case 4: as.slli(rd, rs1, static_cast<std::uint32_t>(rng() % 32)); break;
          default: as.srai(rd, rs1, static_cast<std::uint32_t>(rng() % 32)); break;
        }
        break;
      }
      case 7: {
        const auto offset = static_cast<std::int32_t>((rng() % 256) * 4);
        switch (rng() % 3) {
          case 0: as.lw(reg(), offset, Reg::x5); break;
          case 1: as.lbu(reg(), offset + static_cast<std::int32_t>(rng() % 4), Reg::x5); break;
          default: as.lhu(reg(), offset, Reg::x5); break;
        }
        break;
      }
      case 8: {
        const auto offset = static_cast<std::int32_t>((rng() % 256) * 4);
        switch (rng() % 3) {
          case 0: as.sw(reg(), offset, Reg::x5); break;
          case 1: as.sb(reg(), offset + static_cast<std::int32_t>(rng() % 4), Reg::x5); break;
          default: as.sh(reg(), offset, Reg::x5); break;
        }
        break;
      }
      case 9:
      case 10: {
        const std::string name = "L" + std::to_string(next_label++);
        const int skip = 1 + static_cast<int>(rng() % 4);
        switch (rng() % 4) {
          case 0: as.beq(reg(), reg(), name); break;
          case 1: as.bne(reg(), reg(), name); break;
          case 2: as.blt(reg(), reg(), name); break;
          default: as.bgeu(reg(), reg(), name); break;
        }
        pending.emplace_back(name, skip);
        break;
      }
      default: {
        const std::string name = "J" + std::to_string(next_label++);
        as.jal(Reg::x1, name);
        pending.emplace_back(name, 1 + static_cast<int>(rng() % 3));
        break;
      }
    }
  }
  for (auto& [name, skip] : pending) as.label(name);
  if (self_modify) {
    as.label("patch");
    as.addi(Reg::x7, riscv::zero, 1);
  }
  as.ebreak();
  return as.assemble();
}

// --------------------------------------------------------------------------
// Execution comparison
// --------------------------------------------------------------------------

struct Collector final : riscv::ExecutionObserver {
  std::vector<riscv::InstrEvent> events;
  void on_instruction(const riscv::InstrEvent& e) override { events.push_back(e); }
};

struct Outcome {
  riscv::Machine::StopReason reason = riscv::Machine::StopReason::kHalt;
  std::vector<riscv::InstrEvent> events;
  std::uint64_t cycles = 0;
  std::uint64_t retired = 0;
  std::string trap;
  std::array<std::uint32_t, 32> regs{};
  std::vector<std::uint32_t> memory;
};

Outcome finish(riscv::Machine& m, riscv::Machine::StopReason reason, Collector&& col) {
  Outcome out;
  out.reason = reason;
  out.events = std::move(col.events);
  out.cycles = m.cycle_count();
  out.retired = m.retired_count();
  out.trap = m.trap_message();
  for (int r = 0; r < 32; ++r) out.regs[static_cast<std::size_t>(r)] = m.reg(static_cast<riscv::Reg>(r));
  out.memory.resize(kMemBytes / 4);
  for (std::uint32_t w = 0; w < kMemBytes / 4; ++w) out.memory[w] = m.load_word(w * 4);
  return out;
}

/// Block tier (the default), statically-bound observer (run_with). Every
/// program here decodes at its entry, so the run must have gone through
/// translated blocks.
Outcome run_block(const std::vector<std::uint32_t>& words,
                  std::uint64_t limit = kInstrLimit) {
  riscv::Machine m(kMemBytes);
  m.reset();
  m.load_program(words, 0);
  Collector col;
  const auto reason = m.run_with(limit, col);
  EXPECT_GT(m.translated_block_count(), 0u);
  return finish(m, reason, std::move(col));
}

/// Block tier disabled: run_with steps through the decode-per-step loop
/// with the observer still bound statically.
Outcome run_per_step(const std::vector<std::uint32_t>& words) {
  riscv::Machine m(kMemBytes);
  m.set_block_tier(false);
  m.reset();
  m.load_program(words, 0);
  Collector col;
  const auto reason = m.run_with(kInstrLimit, col);
  return finish(m, reason, std::move(col));
}

/// Virtual-dispatch route of the public API (run with an observer pointer).
Outcome run_virtual(const std::vector<std::uint32_t>& words) {
  riscv::Machine m(kMemBytes);
  m.reset();
  m.load_program(words, 0);
  Collector col;
  const auto reason = m.run(kInstrLimit, &col);
  return finish(m, reason, std::move(col));
}

/// Reference: the decode-per-step anchor loop.
Outcome run_ref(const std::vector<std::uint32_t>& words,
                std::uint64_t limit = kInstrLimit) {
  riscv::Machine m(kMemBytes);
  m.reset();
  m.load_program(words, 0);
  Collector col;
  const auto reason = m.run_reference(limit, &col);
  return finish(m, reason, std::move(col));
}

/// State-only run through the public nullptr-observer route: the block
/// tier instantiated with a NullExecutionObserver, where the InstrEvent
/// construction folds away.
Outcome run_lean(const std::vector<std::uint32_t>& words,
                 std::uint64_t limit = kInstrLimit) {
  riscv::Machine m(kMemBytes);
  m.reset();
  m.load_program(words, 0);
  const auto reason = m.run(limit, nullptr);
  return finish(m, reason, Collector{});
}

Outcome run_lean_reference(const std::vector<std::uint32_t>& words,
                           std::uint64_t limit = kInstrLimit) {
  riscv::Machine m(kMemBytes);
  m.reset();
  m.load_program(words, 0);
  const auto reason = m.run_reference(limit, nullptr);
  return finish(m, reason, Collector{});
}

void expect_events_equal(const riscv::InstrEvent& a, const riscv::InstrEvent& b,
                         std::size_t index) {
  SCOPED_TRACE("event " + std::to_string(index));
  EXPECT_EQ(a.pc, b.pc);
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.klass, b.klass);
  EXPECT_EQ(a.rd, b.rd);
  EXPECT_EQ(a.rs1_val, b.rs1_val);
  EXPECT_EQ(a.rs2_val, b.rs2_val);
  EXPECT_EQ(a.rd_old, b.rd_old);
  EXPECT_EQ(a.rd_new, b.rd_new);
  EXPECT_EQ(a.rd_written, b.rd_written);
  EXPECT_EQ(a.branch_taken, b.branch_taken);
  EXPECT_EQ(a.mem_addr, b.mem_addr);
  EXPECT_EQ(a.mem_data, b.mem_data);
  EXPECT_EQ(a.is_mem_read, b.is_mem_read);
  EXPECT_EQ(a.is_mem_write, b.is_mem_write);
  EXPECT_EQ(a.cycles, b.cycles);
}

void expect_outcomes_equal(const Outcome& fast, const Outcome& ref) {
  EXPECT_EQ(fast.reason, ref.reason);
  EXPECT_EQ(fast.cycles, ref.cycles);
  EXPECT_EQ(fast.retired, ref.retired);
  EXPECT_EQ(fast.trap, ref.trap);
  EXPECT_EQ(fast.regs, ref.regs);
  EXPECT_EQ(fast.memory, ref.memory);
  ASSERT_EQ(fast.events.size(), ref.events.size());
  for (std::size_t i = 0; i < fast.events.size(); ++i) {
    expect_events_equal(fast.events[i], ref.events[i], i);
    if (::testing::Test::HasFailure()) break;  // one mismatch is enough detail
  }
}

TEST(PredecodeFuzz, RandomProgramsMatchReferenceExecution) {
  num::Xoshiro256StarStar rng(0xFA57'F7A5ULL);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto words = random_program(rng, /*self_modify=*/false);
    expect_outcomes_equal(run_block(words), run_ref(words));
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(PredecodeFuzz, SelfModifyingProgramsMatchReferenceExecution) {
  num::Xoshiro256StarStar rng(0x5E1F'0D1FULL);
  for (int trial = 0; trial < 25; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto words = random_program(rng, /*self_modify=*/true);
    expect_outcomes_equal(run_block(words), run_ref(words));
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(PredecodeFuzz, VirtualDispatchRouteMatchesFusedRoute) {
  // The virtual route binds the observer through ExecutionObserver*; the
  // block tier underneath is the same one run_with() instantiates.
  num::Xoshiro256StarStar rng(0x0D15'A7C4ULL);
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto words = random_program(rng, trial % 2 == 1);
    expect_outcomes_equal(run_virtual(words), run_ref(words));
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(Predecode, StoreIntoCodeRegionInvalidatesCachedInstruction) {
  // The store executes before the patched slot is ever fetched: the block
  // tier must re-translate the overwritten word, not replay the stale
  // translation made before the store.
  riscv::Assembler as(0);
  using riscv::Reg;
  as.li(Reg::x16, static_cast<std::int32_t>(kPatchWord));  // addi x7, x0, 2
  as.la(Reg::x17, "patch");
  as.sw(Reg::x16, 0, Reg::x17);
  as.label("patch");
  as.addi(Reg::x7, riscv::zero, 1);
  as.ebreak();
  const auto words = as.assemble();

  const Outcome block = run_block(words);
  const Outcome ref = run_ref(words);
  EXPECT_EQ(block.regs[7], 2u);  // the patched instruction executed
  expect_outcomes_equal(block, ref);
}

// --------------------------------------------------------------------------
// Block-translated execution tier (DESIGN.md §6f)
// --------------------------------------------------------------------------

/// A rejection-sampling loop with the sampler firmware's hot op shapes
/// (xorshift32 step and mask-and-reject block, then the accumulate/loop
/// block), with the register roles drawn from `rng`. Distinct roles
/// reproduce the firmware's dataflow; aliased roles must execute just as
/// exactly. Aliasing can make the loop diverge — the instruction limit then
/// stops both executions at the same instruction.
std::vector<std::uint32_t> sampler_like_program(num::Xoshiro256StarStar& rng,
                                                bool distinct_roles) {
  riscv::Assembler as(0);
  using riscv::Reg;
  std::array<Reg, 8> roles{};
  if (distinct_roles) {
    for (std::size_t i = 0; i < roles.size(); ++i) roles[i] = static_cast<Reg>(5 + i);
    for (std::size_t i = roles.size(); i > 1; --i) {
      std::swap(roles[i - 1], roles[rng() % i]);
    }
  } else {
    for (auto& r : roles) r = static_cast<Reg>(5 + rng() % 11);
  }
  const Reg s = roles[0], t = roles[1], m = roles[2], x = roles[3], bound = roles[4],
            acc = roles[5], ctr = roles[6], n = roles[7];
  as.li(s, static_cast<std::int32_t>(rng() & 0x7FFFFFFF) | 1);
  as.li(bound, 0x4000);  // mask is 0xFFFF: ~1/4 accept rate
  as.li(acc, 0);
  as.li(ctr, 0);
  as.li(n, 1 + static_cast<std::int32_t>(rng() % 4));
  as.label("sample");  // both back-edges target the block head: self-loops
  as.slli(t, s, 13);
  as.xor_(s, s, t);
  as.srli(t, s, 17);
  as.xor_(s, s, t);
  as.slli(t, s, 5);
  as.xor_(s, s, t);
  as.lui(m, 0x10);
  as.addi(m, m, -1);
  as.and_(x, s, m);
  as.bgeu(x, bound, "sample");
  as.add(acc, acc, x);
  as.addi(ctr, ctr, 1);
  as.bne(ctr, n, "sample");
  as.ebreak();
  return as.assemble();
}

/// Emits the sampler's other straight-line shapes (sign-fold epilogue,
/// slli-add-blt, mask-bgeu, plain xorshift, acc-bne) with registers drawn
/// freely from x5..x15 — aliasing included — each terminated by a short
/// forward branch.
std::vector<std::uint32_t> idiom_shape_program(num::Xoshiro256StarStar& rng) {
  riscv::Assembler as(0);
  using riscv::Reg;
  const auto reg = [&]() { return static_cast<Reg>(5 + rng() % 11); };
  const auto imm12 = [&]() { return static_cast<std::int32_t>(rng() % 4096) - 2048; };
  const auto sh = [&]() { return static_cast<std::uint32_t>(rng() % 32); };
  for (int r = 5; r <= 15; ++r) {
    as.li(static_cast<Reg>(r), static_cast<std::int32_t>(rng() % 10007) - 5003);
  }
  int next_label = 0;
  const auto fwd = [&]() { return "F" + std::to_string(next_label++); };
  for (int group = 0; group < 8; ++group) {
    std::string target;
    switch (rng() % 5) {
      case 0: {  // sign-fold epilogue
        as.lui(reg(), static_cast<std::uint32_t>(rng() % (1u << 20)));
        as.addi(reg(), reg(), imm12());
        as.sub(reg(), reg(), reg());
        as.mul(reg(), reg(), reg());
        as.lui(reg(), static_cast<std::uint32_t>(rng() % (1u << 20)));
        as.add(reg(), reg(), reg());
        as.srai(reg(), reg(), sh());
        as.srai(reg(), reg(), sh());
        as.xor_(reg(), reg(), reg());
        as.sub(reg(), reg(), reg());
        target = fwd();
        as.blt(reg(), reg(), target);
        break;
      }
      case 1: {  // store-pointer advance and loop branch
        as.slli(reg(), reg(), sh());
        as.add(reg(), reg(), reg());
        target = fwd();
        as.blt(reg(), reg(), target);
        break;
      }
      case 2: {  // load-mask-and-reject
        as.lui(reg(), static_cast<std::uint32_t>(rng() % (1u << 20)));
        as.addi(reg(), reg(), imm12());
        as.and_(reg(), reg(), reg());
        target = fwd();
        as.bgeu(reg(), reg(), target);
        break;
      }
      case 3: {  // xorshift32 step (no branch in the shape)
        as.slli(reg(), reg(), sh());
        as.xor_(reg(), reg(), reg());
        as.srli(reg(), reg(), sh());
        as.xor_(reg(), reg(), reg());
        as.slli(reg(), reg(), sh());
        as.xor_(reg(), reg(), reg());
        target = fwd();
        as.beq(reg(), reg(), target);
        break;
      }
      default: {  // accumulate-and-loop
        as.add(reg(), reg(), reg());
        as.addi(reg(), reg(), imm12());
        target = fwd();
        as.bne(reg(), reg(), target);
        break;
      }
    }
    as.addi(reg(), reg(), imm12());  // skippable filler
    as.label(target);
  }
  as.ebreak();
  return as.assemble();
}

TEST(BlockTierFuzz, RandomProgramsMatchBothLowerTiers) {
  // The block tier and the statically bound per-step loop (block tier
  // off) against the virtually dispatched reference.
  num::Xoshiro256StarStar rng(0xB10C'F7A5ULL);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto words = random_program(rng, /*self_modify=*/false);
    const Outcome ref = run_ref(words);
    expect_outcomes_equal(run_block(words), ref);
    expect_outcomes_equal(run_per_step(words), ref);
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(BlockTierFuzz, SelfModifyingProgramsMatchReferenceExecution) {
  num::Xoshiro256StarStar rng(0xB10C'0D1FULL);
  for (int trial = 0; trial < 25; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto words = random_program(rng, /*self_modify=*/true);
    expect_outcomes_equal(run_block(words), run_ref(words));
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(BlockTierFuzz, FusedIdiomShapesWithAliasedRegistersMatchReference) {
  num::Xoshiro256StarStar rng(0x1D10'3A17ULL);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto words = idiom_shape_program(rng);
    expect_outcomes_equal(run_block(words), run_ref(words));
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(BlockTierFuzz, SamplerShapedLoopsMatchReferenceWithObserver) {
  num::Xoshiro256StarStar rng(0x5A3B'1E57ULL);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto words = sampler_like_program(rng, /*distinct_roles=*/trial % 2 == 0);
    expect_outcomes_equal(run_block(words), run_ref(words));
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(BlockTierFuzz, LeanNullObserverPathMatchesReference) {
  // The nullptr-observer route instantiates the block tier with a
  // NullExecutionObserver, whose event construction the compiler drops;
  // the observer tests above never reach that instantiation.
  num::Xoshiro256StarStar rng(0x0B5E'55EDULL);
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto words = trial < 12 ? sampler_like_program(rng, trial % 2 == 0)
                                  : random_program(rng, trial % 2 == 1);
    expect_outcomes_equal(run_lean(words), run_lean_reference(words));
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(BlockTierFuzz, InstructionLimitExpiringMidBlockMatchesReference) {
  // Sweep the budget through every point of a sampler-shaped program:
  // limits landing inside a translated block must stop after exactly
  // `limit` retired instructions via the precise tail.
  num::Xoshiro256StarStar rng(0x11D1'7B0DULL);
  const auto words = sampler_like_program(rng, /*distinct_roles=*/true);
  const Outcome full = run_ref(words);
  const std::uint64_t total = full.retired;
  ASSERT_GT(total, 20u);
  for (std::uint64_t limit = 1; limit <= std::min<std::uint64_t>(total + 2, 80); ++limit) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    const Outcome ref = run_ref(words, limit);
    expect_outcomes_equal(run_block(words, limit), ref);
    expect_outcomes_equal(run_lean(words, limit), run_lean_reference(words, limit));
    if (limit < total) {
      EXPECT_EQ(ref.reason, riscv::Machine::StopReason::kInstrLimit);
      EXPECT_EQ(ref.retired, limit);
    }
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(BlockTier, StoreAheadInsideExecutingBlockInvalidatesBeforeFetch) {
  // The store and its target live in the SAME straight-line block: the
  // store must invalidate the translation and bail to the dispatcher so the
  // patched word — not the stale block instruction — executes next.
  riscv::Assembler as(0);
  using riscv::Reg;
  as.li(Reg::x16, static_cast<std::int32_t>(kPatchWord));  // addi x7, x0, 2
  as.la(Reg::x17, "patch");
  as.sw(Reg::x16, 0, Reg::x17);
  as.addi(Reg::x6, riscv::zero, 5);  // still the same block
  as.label("patch");
  as.addi(Reg::x7, riscv::zero, 1);
  as.ebreak();
  const auto words = as.assemble();

  const Outcome block = run_block(words);
  EXPECT_EQ(block.regs[7], 2u);  // the patched instruction executed
  expect_outcomes_equal(block, run_ref(words));
  expect_outcomes_equal(run_lean(words), run_lean_reference(words));
}

TEST(BlockTier, StoreBehindInsideLoopBlockIsObservedOnReExecution) {
  // The loop body patches an instruction BEHIND the store (already executed
  // this iteration); the back-edge re-enters the block, which must have
  // been invalidated — iteration 1 runs the original word, iteration 2 the
  // patched one (x9 accumulates 1 + 2).
  riscv::Assembler as(0);
  using riscv::Reg;
  as.li(Reg::x16, static_cast<std::int32_t>(kPatchWord));  // addi x7, x0, 2
  as.la(Reg::x17, "patch");
  as.li(Reg::x14, 0);
  as.li(Reg::x13, 2);
  as.label("loop");
  as.label("patch");
  as.addi(Reg::x7, riscv::zero, 1);
  as.add(Reg::x9, Reg::x9, Reg::x7);
  as.addi(Reg::x14, Reg::x14, 1);
  as.sw(Reg::x16, 0, Reg::x17);
  as.bne(Reg::x14, Reg::x13, "loop");
  as.ebreak();
  const auto words = as.assemble();

  const Outcome block = run_block(words);
  EXPECT_EQ(block.regs[9], 3u);
  expect_outcomes_equal(block, run_ref(words));
  expect_outcomes_equal(run_lean(words), run_lean_reference(words));
}

std::vector<std::uint32_t> branch_into_middle_program(bool middle_first) {
  riscv::Assembler as(0);
  using riscv::Reg;
  // Iterations enter the same straight-line run alternately at its head and
  // at its middle; whichever entry translates first, the other must not
  // execute a misaligned or stale view of the range.
  as.li(Reg::x14, 0);
  as.li(Reg::x13, middle_first ? 1 : 2);
  as.li(Reg::x12, 3);
  as.label("loop");
  as.addi(Reg::x14, Reg::x14, 1);
  as.beq(Reg::x14, Reg::x13, "mid");
  as.addi(Reg::x6, Reg::x6, 1);
  as.addi(Reg::x7, Reg::x7, 3);
  as.label("mid");
  as.addi(Reg::x8, Reg::x8, 5);
  as.addi(Reg::x9, Reg::x9, 7);
  as.blt(Reg::x14, Reg::x12, "loop");
  as.ebreak();
  return as.assemble();
}

TEST(BlockTier, BranchIntoBlockMiddleMatchesReference) {
  for (const bool middle_first : {false, true}) {
    SCOPED_TRACE(middle_first ? "middle entry first" : "head entry first");
    const auto words = branch_into_middle_program(middle_first);
    expect_outcomes_equal(run_block(words), run_ref(words));
    expect_outcomes_equal(run_lean(words), run_lean_reference(words));
  }
}

TEST(BlockTier, InvalidEncodingAtBlockTailTrapsIdentically) {
  for (const std::uint32_t bad : {0xFFFF'FFFFu, 0x0000'0000u}) {
    SCOPED_TRACE("invalid word " + std::to_string(bad));
    riscv::Assembler as(0);
    using riscv::Reg;
    as.addi(Reg::x6, riscv::zero, 1);
    as.addi(Reg::x7, riscv::zero, 2);
    auto words = as.assemble();
    words.push_back(bad);  // straight line runs off into an invalid encoding
    const Outcome block = run_block(words);
    EXPECT_EQ(block.reason, riscv::Machine::StopReason::kTrap);
    expect_outcomes_equal(block, run_ref(words));
    expect_outcomes_equal(run_lean(words), run_lean_reference(words));
  }
}

TEST(TierToggle, EnablingBlockTierAfterLoadSeesPatchedMemory) {
  // set_block_tier(true) after load_program: memory has changed since the
  // load — the block tier must translate current bytes, never the
  // load-time ones.
  riscv::Assembler as(0);
  using riscv::Reg;
  as.addi(Reg::x7, riscv::zero, 1);
  as.ebreak();
  const auto words = as.assemble();

  riscv::Machine m(kMemBytes);
  m.set_block_tier(false);
  m.reset();
  m.load_program(words, 0);
  m.store_word(0, kPatchWord);  // patch while the block tier is disabled
  m.set_block_tier(true);
  const auto reason = m.run(kInstrLimit, nullptr);
  EXPECT_EQ(reason, riscv::Machine::StopReason::kHalt);
  EXPECT_EQ(m.reg(riscv::Reg::x7), 2u);
}

TEST(TierToggle, ReenablingWarmBlockTierSeesStoredPatch) {
  // Warm the translations with a full run, patch the code via the public
  // store API while the block tier is off, then re-enable it: the store
  // invalidation must be honoured — warm blocks are kept across toggles,
  // so they must not mask the patch.
  riscv::Assembler as(0);
  using riscv::Reg;
  as.addi(Reg::x7, riscv::zero, 1);
  as.ebreak();
  const auto words = as.assemble();

  riscv::Machine m(kMemBytes);
  m.reset();
  m.load_program(words, 0);
  ASSERT_EQ(m.run(kInstrLimit, nullptr), riscv::Machine::StopReason::kHalt);
  ASSERT_EQ(m.reg(riscv::Reg::x7), 1u);

  m.set_block_tier(false);
  m.store_word(0, kPatchWord);
  m.set_block_tier(true);
  m.reset();
  m.load_program(words, 0);  // unchanged-reload path must NOT apply here:
  // the program words differ from patched memory, so this is a fresh load.
  ASSERT_EQ(m.run(kInstrLimit, nullptr), riscv::Machine::StopReason::kHalt);
  EXPECT_EQ(m.reg(riscv::Reg::x7), 1u);  // reload restored the original word

  m.set_block_tier(false);
  m.store_word(0, kPatchWord);
  m.set_block_tier(true);  // invalidation alone must carry the patch
  const auto r = (m.reset(), m.load_program({m.load_word(0), words[1]}, 0),
                  m.run(kInstrLimit, nullptr));
  ASSERT_EQ(r, riscv::Machine::StopReason::kHalt);
  EXPECT_EQ(m.reg(riscv::Reg::x7), 2u);  // patched word executes
}

TEST(TierToggle, SwitchingTiersMidExecutionMatchesReference) {
  // Run the first third under the block tier, the second under the
  // decode-per-step loop and the rest under the block tier again — the
  // composite must be indistinguishable from a pure reference run.
  num::Xoshiro256StarStar rng(0x706'6135ULL);
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto words = trial % 2 == 0 ? sampler_like_program(rng, true)
                                      : random_program(rng, false);
    const Outcome ref = run_ref(words);
    if (ref.retired < 9) continue;

    riscv::Machine m(kMemBytes);
    m.reset();
    m.load_program(words, 0);
    Collector col;
    const std::uint64_t third = ref.retired / 3;
    auto reason = m.run_with(third, col);
    ASSERT_EQ(reason, riscv::Machine::StopReason::kInstrLimit);
    m.set_block_tier(false);
    reason = m.run_with(third, col);
    ASSERT_EQ(reason, riscv::Machine::StopReason::kInstrLimit);
    m.set_block_tier(true);
    reason = m.run_with(kInstrLimit, col);
    expect_outcomes_equal(finish(m, reason, std::move(col)), ref);
    if (::testing::Test::HasFailure()) break;
  }
}

// --------------------------------------------------------------------------
// Template scoring
// --------------------------------------------------------------------------

struct ScoringFixture {
  std::vector<sca::TemplateSet::ClassTemplate> classes;
  num::Matrix cov;
  sca::TemplateSet set;
};

ScoringFixture make_scoring_fixture(std::size_t num_classes, std::size_t dim,
                                    std::uint64_t seed) {
  num::Xoshiro256StarStar rng(seed);
  num::Matrix a(dim, dim);
  for (std::size_t i = 0; i < dim; ++i)
    for (std::size_t j = 0; j < dim; ++j) a(i, j) = rng.gaussian(0.0, 1.0);
  num::Matrix cov(dim, dim);
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < dim; ++k) acc += a(k, i) * a(k, j);
      cov(i, j) = acc / static_cast<double>(dim);
    }
  }
  num::add_ridge(cov, 0.05);
  std::vector<sca::TemplateSet::ClassTemplate> classes(num_classes);
  for (std::size_t c = 0; c < num_classes; ++c) {
    classes[c].label = static_cast<std::int32_t>(c) - static_cast<std::int32_t>(num_classes / 2);
    classes[c].count = 8;
    classes[c].mean.resize(dim);
    for (double& m : classes[c].mean) m = rng.gaussian(0.0, 2.0);
  }
  auto classes_copy = classes;
  auto cov_copy = cov;
  return {std::move(classes), std::move(cov),
          sca::TemplateSet(std::move(classes_copy), std::move(cov_copy))};
}

std::vector<double> random_observation(num::Xoshiro256StarStar& rng, std::size_t dim) {
  std::vector<double> x(dim);
  for (double& v : x) v = rng.gaussian(0.0, 2.0);
  return x;
}

TEST(TemplateScoringFastPath, MatchesMirroredKernelExactly) {
  const auto fx = make_scoring_fixture(9, 6, 0xC0FFEEULL);
  const std::size_t dim = 6;
  // Recompute exactly what the constructor computes: invert_spd is
  // deterministic, so feeding it the same covariance reproduces
  // inv_covariance_ bit-for-bit; the loops below mirror the kernel's
  // documented evaluation order (i-major matvec, left-to-right dots).
  const num::Matrix inv = num::invert_spd(fx.cov);
  const double log_det = num::log_det_spd(fx.cov);
  std::vector<std::vector<double>> u(fx.classes.size(), std::vector<double>(dim));
  std::vector<double> t(fx.classes.size());
  for (std::size_t c = 0; c < fx.classes.size(); ++c) {
    for (std::size_t i = 0; i < dim; ++i) {
      double row = 0.0;
      for (std::size_t j = 0; j < dim; ++j) row += inv(i, j) * fx.classes[c].mean[j];
      u[c][i] = row;
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < dim; ++i) acc += fx.classes[c].mean[i] * u[c][i];
    t[c] = acc;
  }

  num::Xoshiro256StarStar rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::vector<double> x = random_observation(rng, dim);
    std::vector<double> y(dim);
    double xy = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      double row = 0.0;
      for (std::size_t j = 0; j < dim; ++j) row += inv(i, j) * x[j];
      y[i] = row;
      xy += x[i] * row;
    }
    const std::vector<double> maha = fx.set.mahalanobis(x);
    const std::vector<double> scores = fx.set.log_scores(x);
    ASSERT_EQ(maha.size(), fx.classes.size());
    for (std::size_t c = 0; c < fx.classes.size(); ++c) {
      double ux = 0.0;
      for (std::size_t i = 0; i < dim; ++i) ux += u[c][i] * x[i];
      const double expected = xy - 2.0 * ux + t[c];
      EXPECT_EQ(maha[c], expected) << "class " << c;  // exact, not approximate
      EXPECT_EQ(scores[c], -0.5 * expected - 0.5 * log_det) << "class " << c;
    }
  }
}

TEST(TemplateScoringFastPath, AgreesWithReferenceLoopsWithinTolerance) {
  const auto fx = make_scoring_fixture(11, 8, 0xBEEFULL);
  num::Xoshiro256StarStar rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<double> x = random_observation(rng, 8);
    const std::vector<double> fast = fx.set.mahalanobis(x);
    const std::vector<double> ref = fx.set.mahalanobis_reference(x);
    const std::vector<double> fast_scores = fx.set.log_scores(x);
    const std::vector<double> ref_scores = fx.set.log_scores_reference(x);
    ASSERT_EQ(fast.size(), ref.size());
    for (std::size_t c = 0; c < fast.size(); ++c) {
      const double scale = std::max(1.0, std::fabs(ref[c]));
      EXPECT_NEAR(fast[c], ref[c], 1e-9 * scale) << "class " << c;
      EXPECT_NEAR(fast_scores[c], ref_scores[c], 1e-9 * std::max(1.0, std::fabs(ref_scores[c])))
          << "class " << c;
    }
  }
}

TEST(TemplateScoringFastPath, ClassifyIsArgmaxOfPosteriorAndLogScores) {
  const auto fx = make_scoring_fixture(7, 5, 0xABCDULL);
  num::Xoshiro256StarStar rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    const std::vector<double> x = random_observation(rng, 5);
    const std::vector<double> scores = fx.set.log_scores(x);
    const std::vector<double> post = fx.set.posterior(x);
    std::size_t best = 0;
    for (std::size_t i = 1; i < scores.size(); ++i) {
      if (scores[i] > scores[best]) best = i;
    }
    EXPECT_EQ(fx.set.classify(x), fx.classes[best].label);
    // posterior routes through the same kernel: exact agreement.
    const std::vector<double> expected_post = num::log_scores_to_posterior(scores);
    ASSERT_EQ(post.size(), expected_post.size());
    for (std::size_t i = 0; i < post.size(); ++i) EXPECT_EQ(post[i], expected_post[i]);
  }
}

// --------------------------------------------------------------------------
// Allocation-free capture pipeline
// --------------------------------------------------------------------------

void expect_captures_equal(const core::FullCapture& a, const core::FullCapture& b) {
  EXPECT_EQ(a.trace, b.trace);  // bit-equal doubles
  EXPECT_EQ(a.noise, b.noise);
  EXPECT_EQ(a.permutation, b.permutation);
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (std::size_t i = 0; i < a.segments.size(); ++i) {
    EXPECT_EQ(a.segments[i].burst_begin, b.segments[i].burst_begin);
    EXPECT_EQ(a.segments[i].burst_end, b.segments[i].burst_end);
    EXPECT_EQ(a.segments[i].window_begin, b.segments[i].window_begin);
    EXPECT_EQ(a.segments[i].window_end, b.segments[i].window_end);
  }
}

TEST(CaptureReuse, CaptureIntoReusedStorageMatchesFreshCaptureBitExactly) {
  core::CampaignConfig cfg;
  cfg.n = 16;
  cfg.num_workers = 0;
  core::SamplerCampaign fresh(cfg);
  core::SamplerCampaign reused(cfg);
  core::FullCapture scratch;
  for (std::uint64_t seed = 3; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const core::FullCapture expect = fresh.capture(seed);
    reused.capture_into(seed, scratch);  // same scratch across all seeds
    expect_captures_equal(scratch, expect);
  }
}

TEST(CaptureReuse, FaultedCaptureIntoMatchesFreshCapture) {
  core::CampaignConfig cfg;
  cfg.n = 16;
  cfg.num_workers = 0;
  cfg.faults.glitch_count = 3;
  cfg.faults.jitter_sigma = 0.01;
  core::SamplerCampaign fresh(cfg);
  core::SamplerCampaign reused(cfg);
  core::FullCapture scratch;
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const core::FullCapture expect = fresh.capture(seed);
    reused.capture_into(seed, scratch);
    expect_captures_equal(scratch, expect);
  }
}

TEST(CaptureReuse, ShuffledCaptureIntoMatchesFreshCapture) {
  core::CampaignConfig cfg;
  cfg.n = 16;
  cfg.num_workers = 0;
  cfg.shuffled_firmware = true;
  core::SamplerCampaign fresh(cfg);
  core::SamplerCampaign reused(cfg);
  core::FullCapture scratch;
  // Prime the scratch with a non-shuffled-shaped capture first so stale
  // permutation/segment contents must be fully overwritten.
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const core::FullCapture expect = fresh.capture(seed);
    reused.capture_into(seed, scratch);
    expect_captures_equal(scratch, expect);
  }
}

TEST(CaptureReuse, WindowsFromCaptureOverloadsAgree) {
  core::CampaignConfig cfg;
  cfg.n = 16;
  cfg.num_workers = 0;
  core::SamplerCampaign campaign(cfg);
  std::vector<core::WindowRecord> reused;
  for (std::uint64_t seed = 5; seed <= 7; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const core::FullCapture cap = campaign.capture(seed);
    if (cap.segments.size() != cap.noise.size()) continue;
    const std::vector<core::WindowRecord> owned = core::windows_from_capture(cap);
    core::windows_from_capture(cap, reused);  // same vector across seeds
    ASSERT_EQ(reused.size(), owned.size());
    for (std::size_t i = 0; i < owned.size(); ++i) {
      EXPECT_EQ(reused[i].samples, owned[i].samples);
      EXPECT_EQ(reused[i].true_value, owned[i].true_value);
    }
  }
}

}  // namespace
