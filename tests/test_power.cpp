// Power model and trace recorder tests.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "numeric/rng.hpp"
#include "numeric/stats.hpp"
#include "power/leakage_model.hpp"
#include "power/trace_recorder.hpp"
#include "riscv/assembler.hpp"
#include "riscv/machine.hpp"

using namespace reveal;
using namespace reveal::riscv;

namespace {

power::LeakageParams quiet_params() {
  power::LeakageParams p;
  p.noise_sigma = 0.0;
  return p;
}

InstrEvent make_alu_event(std::uint32_t rd_old, std::uint32_t rd_new, std::uint32_t cycles = 3) {
  InstrEvent e;
  e.klass = InstrClass::kAlu;
  e.op = Op::kAdd;
  e.rd_written = true;
  e.rd_old = rd_old;
  e.rd_new = rd_new;
  e.cycles = cycles;
  return e;
}

}  // namespace

TEST(LeakageModel, WeightedHwNearHw) {
  const power::LeakageModel model(quiet_params());
  EXPECT_EQ(model.weighted_hw(0), 0.0);
  // Deviations are bounded by +-bit_deviation per bit.
  const double whw = model.weighted_hw(0xFFFFFFFFu);
  EXPECT_NEAR(whw, 32.0, 32.0 * 0.08 + 1e-12);
  EXPECT_GT(model.weighted_hw(0b111), model.weighted_hw(0b1));
}

TEST(LeakageModel, WeightedHwTablesMatchBitLoop) {
  // The byte tables regroup the per-bit sum, so they may differ from a
  // plain bit loop in the last few ulp, never more. The weights are
  // derived here exactly as the model derives them.
  const power::LeakageParams params;
  const power::LeakageModel model(params);
  num::Xoshiro256StarStar weight_rng(params.bit_weight_seed);
  std::array<double, 32> bit_weights{};
  for (double& w : bit_weights)
    w = 1.0 + params.bit_deviation * (2.0 * weight_rng.uniform_double() - 1.0);
  const auto bit_loop = [&](std::uint32_t value) {
    double acc = 0.0;
    for (std::size_t b = 0; b < 32; ++b) {
      if ((value >> b) & 1u) acc += bit_weights[b];
    }
    return acc;
  };

  std::vector<std::uint32_t> words = {0u, 0xFFFFFFFFu, 0x80000000u, 0x7FFFFFFFu,
                                      0x000000FFu, 0xFF000000u, 0x00FF00FFu, 0xFF00FF00u,
                                      0x55555555u, 0xAAAAAAAAu};
  for (std::size_t b = 0; b < 32; ++b) words.push_back(std::uint32_t{1} << b);
  num::Xoshiro256StarStar rng(2024);
  for (int i = 0; i < 1'000'000; ++i) words.push_back(static_cast<std::uint32_t>(rng()));

  for (const std::uint32_t w : words) {
    const double expected = bit_loop(w);
    ASSERT_NEAR(model.weighted_hw(w), expected, 1e-14 * expected) << std::hex << w;
  }
  for (std::size_t b = 0; b < 32; ++b)
    EXPECT_EQ(model.weighted_hw(std::uint32_t{1} << b), bit_weights[b]) << b;
}

TEST(LeakageModel, WeightedHwDistinguishesEqualHwValues) {
  // HW(1) == HW(2) but the weighted versions must differ (per-bit spread) —
  // this is what lets the template attack split values within an HW class.
  const power::LeakageModel model(quiet_params());
  EXPECT_NE(model.weighted_hw(1), model.weighted_hw(2));
}

TEST(LeakageModel, ExecutePowerReflectsData) {
  const power::LeakageModel model(quiet_params());
  const double p_small = model.execute_cycle_power(make_alu_event(0, 1));
  const double p_large = model.execute_cycle_power(make_alu_event(0, 0xFFFFFFFFu));
  EXPECT_GT(p_large, p_small + 3.0);  // ~ (w_hd + w_hw) * 31 more
}

TEST(LeakageModel, SampleCountEqualsCycles) {
  const power::LeakageModel model(quiet_params());
  num::Xoshiro256StarStar rng(1);
  std::vector<double> out;
  model.append_samples(make_alu_event(0, 3, 7), rng, out);
  EXPECT_EQ(out.size(), 7u);
  // Only the final (execute) cycle carries the data component.
  for (std::size_t i = 0; i + 1 < out.size(); ++i) {
    EXPECT_NEAR(out[i], model.base_power(InstrClass::kAlu), 1e-12);
  }
  EXPECT_GT(out.back(), out.front());
}

TEST(LeakageModel, NoiseIsDeterministicPerSeed) {
  power::LeakageParams p;
  p.noise_sigma = 0.5;
  const power::LeakageModel model(p);
  std::vector<double> t1, t2;
  num::Xoshiro256StarStar r1(99), r2(99);
  model.append_samples(make_alu_event(0, 5), r1, t1);
  model.append_samples(make_alu_event(0, 5), r2, t2);
  EXPECT_EQ(t1, t2);
}

TEST(LeakageModel, BaseLevelsOrdered) {
  const power::LeakageModel model(quiet_params());
  // Memory and multiplier activity dominates plain ALU activity.
  EXPECT_GT(model.base_power(InstrClass::kMul), model.base_power(InstrClass::kStore));
  EXPECT_GT(model.base_power(InstrClass::kStore), model.base_power(InstrClass::kAlu));
}

TEST(TraceRecorder, RecordsFullProgramPower) {
  Assembler as;
  as.li(a0, 0x55);
  as.li(s0, 0x300);
  as.sw(a0, 0, s0);
  as.ebreak();
  Machine m(4096);
  m.load_program(as.assemble());

  const power::LeakageModel model(quiet_params());
  power::TraceRecorder recorder(model, 7);
  ASSERT_EQ(m.run(100, &recorder), Machine::StopReason::kHalt);
  EXPECT_EQ(recorder.samples().size(), m.cycle_count());
}

TEST(TraceRecorder, MarkersFireAtWatchedPc) {
  Assembler as;
  as.li(t0, 3);
  as.label("loop");          // pc = 4
  as.addi(t0, t0, -1);
  as.bnez(t0, "loop");
  as.ebreak();
  Machine m(4096);
  const auto words = as.assemble();
  m.load_program(words);

  const power::LeakageModel model(quiet_params());
  power::TraceRecorder recorder(model, 1);
  recorder.watch_pc(4, 100, /*increment=*/true);
  ASSERT_EQ(m.run(100, &recorder), Machine::StopReason::kHalt);
  ASSERT_EQ(recorder.markers().size(), 3u);  // loop body runs 3 times
  EXPECT_EQ(recorder.markers()[0].tag, 100u);
  EXPECT_EQ(recorder.markers()[2].tag, 102u);
  EXPECT_LT(recorder.markers()[0].sample_index, recorder.markers()[1].sample_index);
}

TEST(TraceRecorder, ClearResets) {
  const power::LeakageModel model(quiet_params());
  power::TraceRecorder recorder(model, 1);
  std::vector<double> dummy;
  recorder.on_instruction(make_alu_event(0, 1));
  EXPECT_FALSE(recorder.samples().empty());
  recorder.clear();
  EXPECT_TRUE(recorder.samples().empty());
}

TEST(TraceRecorder, TakeSamplesLeavesRecorderReusable) {
  // Regression: take_samples() used to only move the buffer out, leaving
  // the markers of the taken capture behind to contaminate the next
  // recording.
  power::LeakageParams p;
  p.noise_sigma = 0.2;
  const power::LeakageModel model(p);
  power::TraceRecorder recorder(model, 9);
  recorder.watch_pc(0, 5);
  recorder.on_instruction(make_alu_event(0, 1));
  const std::vector<double> first = recorder.take_samples();
  EXPECT_FALSE(first.empty());
  EXPECT_TRUE(recorder.samples().empty());
  EXPECT_TRUE(recorder.markers().empty());  // stale markers are gone

  // Rearming with the same seed must reproduce the first capture
  // bit-for-bit (noise stream reseeded, the auto-increment watch tag
  // rewinds).
  recorder.begin_capture(9);
  recorder.on_instruction(make_alu_event(0, 1));
  EXPECT_EQ(recorder.samples(), first);
  ASSERT_EQ(recorder.markers().size(), 1u);
  EXPECT_EQ(recorder.markers()[0].tag, 5u);
}

TEST(TraceRecorder, ReusedRecorderMatchesFreshRecorder) {
  power::LeakageParams p;
  p.noise_sigma = 0.3;
  const power::LeakageModel model(p);

  power::TraceRecorder reused(model, 1);
  for (std::uint64_t seed = 2; seed <= 4; ++seed) {
    power::TraceRecorder fresh(model, seed);
    reused.begin_capture(seed);
    for (int i = 0; i < 16; ++i) {
      fresh.on_instruction(make_alu_event(static_cast<std::uint32_t>(i), 1));
      reused.on_instruction(make_alu_event(static_cast<std::uint32_t>(i), 1));
    }
    EXPECT_EQ(reused.samples(), fresh.samples()) << "seed " << seed;
    (void)reused.take_samples();
  }
}
