// Microbenchmarks of the core primitives: NTT, BFV encrypt/decrypt, the
// RISC-V victim simulation, trace segmentation, template scoring and LLL —
// the cost profile of the whole reproduction.
//
// Two modes:
//   * default: google-benchmark over the registered BM_* functions
//     (supports the usual --benchmark_* flags);
//   * --json [--smoke]: the hot-path regression harness. Hand-rolled
//     steady_clock loops time the capture path (capture_into, the ISS with
//     the TraceRecorder observer attached) on the block tier against the
//     decode-per-step reference tier, the shared-work template scoring and
//     the analysis-plane kernels against their references, plus
//     segmentation and NTT throughput, and emit BENCH_perf.json. The run
//     fails (nonzero exit) if the fast paths are not byte-identical: both
//     tiers must produce identical InstrEvent streams, cycle counts and
//     decoded noise, and the golden fixture's committed recovery
//     (tests/data/golden_expected.txt) must replay exactly through the
//     optimized pipeline. --smoke shrinks the iteration counts and skips
//     the speedup thresholds (identity is still enforced) so CTest can run
//     the gate quickly.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/acquisition.hpp"
#include "core/attack.hpp"
#include "core/campaign_runner.hpp"
#include "core/hints.hpp"
#include "core/victim.hpp"
#include "lwe/dbdd.hpp"
#include "lattice/lattice.hpp"
#include "numeric/matrix.hpp"
#include "numeric/rng.hpp"
#include "sca/segmentation.hpp"
#include "sca/template_attack.hpp"
#include "sca/trace.hpp"
#include "seal/decryptor.hpp"
#include "seal/encryptor.hpp"
#include "seal/keys.hpp"
#include "seal/ntt.hpp"
#include "seal/ntt_fast.hpp"

using namespace reveal;

namespace {

// --------------------------------------------------------------------------
// Shared helpers for the --json harness
// --------------------------------------------------------------------------

/// Times f(i) over `iters` calls after a small warmup; returns ns per call.
template <typename F>
double time_ns_per_op(F&& f, std::size_t iters) {
  for (std::size_t i = 0; i < 3 && i < iters; ++i) f(i);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) f(i);
  const auto t1 = std::chrono::steady_clock::now();
  const double ns =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  return ns / static_cast<double>(iters);
}

/// time_ns_per_op for two legs of the same work, each the minimum over
/// `passes` alternating windows, so a noisy stretch of the host lands on
/// both legs or on neither.
template <typename F, typename G>
std::pair<double, double> time_pair_ns(F&& fast, G&& ref, std::size_t iters, int passes) {
  double fast_ns = std::numeric_limits<double>::infinity();
  double ref_ns = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < passes; ++pass) {
    fast_ns = std::min(fast_ns, time_ns_per_op(fast, iters));
    ref_ns = std::min(ref_ns, time_ns_per_op(ref, iters));
  }
  return {fast_ns, ref_ns};
}

/// Median of `v` (the mean of the two middle values for an even count).
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Records every InstrEvent for field-by-field stream comparison.
struct EventCollector final : riscv::ExecutionObserver {
  std::vector<riscv::InstrEvent> events;
  void on_instruction(const riscv::InstrEvent& e) override { events.push_back(e); }
};

bool events_equal(const riscv::InstrEvent& a, const riscv::InstrEvent& b) {
  return a.pc == b.pc && a.op == b.op && a.klass == b.klass && a.rd == b.rd &&
         a.rs1_val == b.rs1_val && a.rs2_val == b.rs2_val && a.rd_old == b.rd_old &&
         a.rd_new == b.rd_new && a.rd_written == b.rd_written &&
         a.branch_taken == b.branch_taken && a.mem_addr == b.mem_addr &&
         a.mem_data == b.mem_data && a.is_mem_read == b.is_mem_read &&
         a.is_mem_write == b.is_mem_write && a.cycles == b.cycles;
}

/// The block tier against the decode-per-step anchor over several seeds:
/// event streams, cycle/instruction counters and decoded noise must all
/// match exactly.
bool victim_identity_gate() {
  const core::VictimProgram prog = core::build_sampler_firmware(64, {132120577ULL});
  riscv::Machine ref_machine(prog.memory_bytes);
  riscv::Machine blk_machine(prog.memory_bytes);
  for (std::uint32_t seed = 1; seed <= 5; ++seed) {
    EventCollector ref_events;
    EventCollector blk_events;
    const core::VictimRun ref = core::run_victim_tier(
        prog, ref_machine, seed, core::VictimTier::kReference, &ref_events);
    const core::VictimRun blk = core::run_victim_tier(
        prog, blk_machine, seed, core::VictimTier::kBlock, &blk_events);
    if (blk.noise != ref.noise || blk.cycles != ref.cycles ||
        blk.instructions != ref.instructions)
      return false;
    if (blk_events.events.size() != ref_events.events.size()) return false;
    for (std::size_t i = 0; i < blk_events.events.size(); ++i) {
      if (!events_equal(blk_events.events[i], ref_events.events[i])) return false;
    }
  }
  return true;
}

/// A template set of the attack's shape: K labels, pooled SPD covariance.
sca::TemplateSet make_template_set(std::size_t num_classes, std::size_t dim,
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
  const std::int32_t half = static_cast<std::int32_t>(num_classes / 2);
  for (std::size_t c = 0; c < num_classes; ++c) {
    classes[c].label = static_cast<std::int32_t>(c) - half;
    classes[c].count = 16;
    classes[c].mean.resize(dim);
    for (double& m : classes[c].mean) m = rng.gaussian(0.0, 2.0);
  }
  return sca::TemplateSet(std::move(classes), std::move(cov));
}

struct ExpectedWindow {
  std::size_t index = 0;
  int sign = 0;
  int value = 0;
  int quality = 0;
  long long truth = 0;
};

/// Replays the committed golden-fixture recovery (same pinned configuration
/// as tests/test_golden_fixture.cpp) through the optimized pipeline; every
/// window's integer decision must match the committed expectation.
bool golden_identity_gate() {
  const std::string dir = REVEAL_GOLDEN_DATA_DIR;
  const sca::TraceSet set = sca::TraceSet::load(dir + "/golden_trace.bin");
  if (set.size() != 1) return false;

  std::vector<ExpectedWindow> expected;
  std::ifstream in(dir + "/golden_expected.txt");
  if (!in.good()) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    ExpectedWindow w;
    if (std::sscanf(line.c_str(), "%zu %d %d %d %lld", &w.index, &w.sign, &w.value,
                    &w.quality, &w.truth) != 5)
      return false;
    expected.push_back(w);
  }

  core::CampaignConfig capture_cfg;
  capture_cfg.n = 16;
  capture_cfg.num_workers = 0;
  if (expected.size() != capture_cfg.n) return false;

  core::CampaignConfig train_cfg;
  train_cfg.n = 64;
  train_cfg.num_workers = 0;
  core::SamplerCampaign profiler(train_cfg);
  core::AttackConfig acfg;
  acfg.abstain_margin = 0.30;
  acfg.low_confidence_margin = 0.45;
  acfg.value_commit_threshold = 0.05;
  acfg.sign_fit_threshold = 2.5;
  acfg.value_fit_threshold = 4.0;
  core::RevealAttack attack(acfg);
  attack.train(profiler.collect_windows(120, /*seed_base=*/1));

  const core::RobustCaptureResult res = attack.attack_capture_robust(
      set[0].samples, capture_cfg.n, capture_cfg.segmentation);
  if (res.guesses.size() != expected.size()) return false;
  for (const ExpectedWindow& w : expected) {
    const core::CoefficientGuess& g = res.guesses[w.index];
    if (g.sign != w.sign || g.value != w.value || static_cast<int>(g.quality) != w.quality)
      return false;
  }
  return true;
}

// --------------------------------------------------------------------------
// Analysis-plane leg inputs
// --------------------------------------------------------------------------

bool segments_equal(const std::vector<sca::Segment>& a,
                    const std::vector<sca::Segment>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].burst_begin != b[i].burst_begin || a[i].burst_end != b[i].burst_end ||
        a[i].window_begin != b[i].window_begin || a[i].window_end != b[i].window_end)
      return false;
  }
  return true;
}

/// Fast vs reference sweep result: everything except `attempts` (the fast
/// path skips duplicate candidates by design) must match bit-for-bit.
bool sweep_results_equal(const sca::SegmentationResult& fast,
                         const sca::SegmentationResult& ref) {
  return fast.status == ref.status && segments_equal(fast.segments, ref.segments) &&
         fast.window_quality == ref.window_quality &&
         fast.config.smooth_window == ref.config.smooth_window &&
         fast.config.threshold == ref.config.threshold &&
         fast.config.min_burst_length == ref.config.min_burst_length &&
         fast.burst_consistency == ref.burst_consistency;
}

/// A fixed-seed LLL instance: near-diagonal with dense noise, the shape the
/// DBDD embedding produces after hint intersection.
lattice::Basis make_lll_basis(std::size_t n, std::uint64_t seed) {
  num::Xoshiro256StarStar rng(seed);
  lattice::Basis basis(n, std::vector<std::int64_t>(n, 0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) basis[i][j] = rng.uniform_int(-50, 50);
    basis[i][i] += 150;
  }
  return basis;
}

// --------------------------------------------------------------------------
// Observability-overhead leg inputs
// --------------------------------------------------------------------------

bool guesses_equal(const core::CoefficientGuess& a, const core::CoefficientGuess& b) {
  return a.sign == b.sign && a.value == b.value && a.support == b.support &&
         a.posterior == b.posterior && a.quality == b.quality &&
         a.sign_trusted == b.sign_trusted && a.sign_margin == b.sign_margin;
}

/// Bit-equality of two campaign results over every field the equivalence
/// suite pins (guesses, hints, report counters, bikz/bits).
bool campaign_results_equal(const core::RecoveryCampaignResult& a,
                            const core::RecoveryCampaignResult& b) {
  if (a.captures.size() != b.captures.size()) return false;
  for (std::size_t i = 0; i < a.captures.size(); ++i) {
    const auto& sa = a.captures[i].segmentation;
    const auto& sb = b.captures[i].segmentation;
    if (sa.status != sb.status || sa.attempts != sb.attempts ||
        sa.burst_consistency != sb.burst_consistency ||
        sa.window_quality != sb.window_quality)
      return false;
    if (a.captures[i].guesses.size() != b.captures[i].guesses.size()) return false;
    for (std::size_t g = 0; g < a.captures[i].guesses.size(); ++g) {
      if (!guesses_equal(a.captures[i].guesses[g], b.captures[i].guesses[g])) return false;
    }
  }
  if (a.hints != b.hints) return false;
  if (a.hint_totals.perfect != b.hint_totals.perfect ||
      a.hint_totals.approximate != b.hint_totals.approximate ||
      a.hint_totals.sign_only != b.hint_totals.sign_only ||
      a.hint_totals.skipped != b.hint_totals.skipped ||
      a.hint_totals.mean_residual_variance != b.hint_totals.mean_residual_variance)
    return false;
  const auto& ra = a.report;
  const auto& rb = b.report;
  return ra.expected_windows == rb.expected_windows &&
         ra.recovered_windows == rb.recovered_windows &&
         ra.segmentation_status == rb.segmentation_status &&
         ra.segmentation_attempts == rb.segmentation_attempts &&
         ra.burst_consistency == rb.burst_consistency &&
         ra.ok_guesses == rb.ok_guesses &&
         ra.low_confidence_guesses == rb.low_confidence_guesses &&
         ra.abstained_guesses == rb.abstained_guesses &&
         ra.perfect_hints == rb.perfect_hints &&
         ra.approximate_hints == rb.approximate_hints &&
         ra.sign_only_hints == rb.sign_only_hints &&
         ra.dropped_hints == rb.dropped_hints && ra.bikz == rb.bikz &&
         ra.bits == rb.bits;
}

// --------------------------------------------------------------------------
// --json harness
// --------------------------------------------------------------------------

int run_json_harness(bool smoke) {
  // Block tier vs the decode-per-step anchor on the capture path, with the
  // TraceRecorder attached as in every pipeline capture.
  constexpr double kCaptureSpeedupGate = 1.15;
  constexpr double kTemplateSpeedupGate = 3.0;
  constexpr double kSegSweepSpeedupGate = 3.0;
  constexpr double kLllSpeedupGate = 2.0;
  constexpr double kObsOverheadGate = 0.02;  // observability must cost < 2%

  std::uint64_t sink = 0;

  // --- template scoring: shared-work factorization vs per-class loops ----
  const std::size_t dim = 12;
  const std::size_t num_classes = 25;  // sign classes + value classes of the attack
  const sca::TemplateSet templates = make_template_set(num_classes, dim, 99);
  num::Xoshiro256StarStar obs_rng(7);
  std::vector<std::vector<double>> observations(smoke ? 64 : 512);
  for (auto& obs : observations) {
    obs.resize(dim);
    for (double& v : obs) v = obs_rng.gaussian(0.0, 2.0);
  }
  const std::size_t score_iters = smoke ? 2000 : 40000;
  double fsink = 0.0;
  const auto [score_fast_ns, score_ref_ns] = time_pair_ns(
      [&](std::size_t i) {
        const auto d = templates.mahalanobis(observations[i % observations.size()]);
        fsink += d.back();
      },
      [&](std::size_t i) {
        const auto d = templates.mahalanobis_reference(observations[i % observations.size()]);
        fsink += d.back();
      },
      score_iters, smoke ? 5 : 1);
  const double score_speedup = score_ref_ns > 0.0 ? score_ref_ns / score_fast_ns : 0.0;
  double score_max_delta = 0.0;
  for (const auto& obs : observations) {
    const auto fast = templates.mahalanobis(obs);
    const auto ref = templates.mahalanobis_reference(obs);
    for (std::size_t c = 0; c < fast.size(); ++c) {
      score_max_delta = std::max(score_max_delta, std::fabs(fast[c] - ref[c]));
    }
  }

  // --- capture throughput: block tier vs reference tier ------------------
  // capture_into runs the victim with the TraceRecorder observer (plus
  // noise and segmentation), the path every pipeline capture takes, so
  // this ratio is what the block tier buys end to end. Single captures of
  // the two tiers alternate, and each seed keeps its minimum over the
  // passes, so a co-tenant burst lands on both legs or on neither.
  core::CampaignConfig cfg = bench::default_campaign(64);
  cfg.num_workers = 0;
  core::CampaignConfig ref_cfg = cfg;
  ref_cfg.victim_tier = core::VictimTier::kReference;
  core::SamplerCampaign campaign(cfg);
  core::SamplerCampaign ref_campaign(ref_cfg);
  core::FullCapture cap;
  core::FullCapture ref_cap;
  const auto time_capture = [&sink](core::SamplerCampaign& c, std::uint64_t seed,
                                    core::FullCapture& out) {
    const auto t0 = std::chrono::steady_clock::now();
    c.capture_into(seed, out);
    const auto t1 = std::chrono::steady_clock::now();
    sink += out.trace.size();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  };
  const std::size_t capture_seeds = smoke ? 4 : 16;
  std::vector<double> block_best(capture_seeds, std::numeric_limits<double>::infinity());
  std::vector<double> ref_best(capture_seeds, std::numeric_limits<double>::infinity());
  bool capture_identical = true;
  for (int pass = 0; pass < (smoke ? 5 : 16); ++pass) {
    for (std::size_t i = 0; i < capture_seeds; ++i) {
      const bool block_first = (pass + static_cast<int>(i)) % 2 == 0;
      const auto time_block = [&] {
        block_best[i] = std::min(block_best[i], time_capture(campaign, i + 1, cap));
      };
      if (block_first) time_block();
      ref_best[i] = std::min(ref_best[i], time_capture(ref_campaign, i + 1, ref_cap));
      if (!block_first) time_block();
      capture_identical =
          capture_identical && cap.trace == ref_cap.trace && cap.noise == ref_cap.noise;
    }
  }
  double capture_ns = 0.0;
  double capture_ref_ns = 0.0;
  for (std::size_t i = 0; i < capture_seeds; ++i) {
    capture_ns += block_best[i] / static_cast<double>(capture_seeds);
    capture_ref_ns += ref_best[i] / static_cast<double>(capture_seeds);
  }
  const double capture_speedup = capture_ns > 0.0 ? capture_ref_ns / capture_ns : 0.0;
  const double capture_ms = capture_ns / 1e6;
  const double captures_per_second = capture_ns > 0.0 ? 1e9 / capture_ns : 0.0;
  campaign.capture_into(12345, cap);
  const double segment_ns = time_ns_per_op(
      [&](std::size_t) {
        const auto segs = sca::segment_trace(cap.trace, cfg.segmentation);
        sink += segs.size();
      },
      smoke ? 20 : 200);

  // --- robust segmentation sweep: shared-work vs full re-segmentation ----
  // A mismatched expected count forces the complete sweep (the worst case
  // the degraded-capture pipeline hits); the fast path smooths once per
  // distinct window and scans bursts once per (window, threshold).
  const std::size_t sweep_expected = cfg.n + 5;
  // Min over alternating short windows: one long window per leg lets a
  // single scheduling episode land on just one side and swing the ratio
  // across the gate.
  double sweep_fast_ns = std::numeric_limits<double>::infinity();
  double sweep_ref_ns = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < (smoke ? 1 : 6); ++pass) {
    sweep_fast_ns = std::min(
        sweep_fast_ns, time_ns_per_op(
                           [&](std::size_t) {
                             const auto res =
                                 sca::segment_trace_robust(cap.trace, sweep_expected);
                             sink += res.attempts;
                           },
                           smoke ? 3 : 4));
    sweep_ref_ns = std::min(
        sweep_ref_ns, time_ns_per_op(
                          [&](std::size_t) {
                            const auto res = sca::segment_trace_robust_reference(
                                cap.trace, sweep_expected);
                            sink += res.attempts;
                          },
                          smoke ? 3 : 2));
  }
  const double sweep_speedup = sweep_fast_ns > 0.0 ? sweep_ref_ns / sweep_fast_ns : 0.0;
  bool sweep_identical = true;
  for (const std::size_t expected : {cfg.n, sweep_expected, cfg.n / 2}) {
    const auto fast = sca::segment_trace_robust(cap.trace, expected);
    const auto ref = sca::segment_trace_robust_reference(cap.trace, expected);
    if (!sweep_results_equal(fast, ref)) sweep_identical = false;
  }

  // --- LLL: flat incremental GSO vs full recompute per perturbation ------
  const std::size_t lll_n = smoke ? 16 : 28;
  const lattice::Basis lll_basis = make_lll_basis(lll_n, 5);
  const double lll_fast_ns = time_ns_per_op(
      [&](std::size_t) {
        lattice::Basis b = lll_basis;
        sink += lattice::lll_reduce(b);
      },
      smoke ? 2 : 8);
  const double lll_ref_ns = time_ns_per_op(
      [&](std::size_t) {
        lattice::Basis b = lll_basis;
        sink += lattice::lll_reduce_reference(b);
      },
      smoke ? 2 : 8);
  const double lll_speedup = lll_fast_ns > 0.0 ? lll_ref_ns / lll_fast_ns : 0.0;
  bool lll_identical = true;
  for (std::uint64_t seed = 5; seed <= 7; ++seed) {
    lattice::Basis fast_b = make_lll_basis(smoke ? 12 : 20, seed);
    lattice::Basis ref_b = fast_b;
    const std::size_t fast_swaps = lattice::lll_reduce(fast_b);
    const std::size_t ref_swaps = lattice::lll_reduce_reference(ref_b);
    if (fast_b != ref_b || fast_swaps != ref_swaps) lll_identical = false;
  }

  // --- observability overhead: instrumented vs null-tracer campaign ------
  // The same degradation-aware campaign runs with and without a
  // CampaignDiagnostics sink. The diag-off leg is the NullSpanTracer
  // instantiation (the pre-observability code by construction); the gate
  // bounds what the instrumented instantiation may cost on top and requires
  // the two results to be bit-identical.
  core::CampaignConfig obs_cfg = bench::default_campaign(64);
  obs_cfg.num_workers = 0;
  obs_cfg.faults.jitter_sigma = 0.4;
  obs_cfg.faults.dropout_rate = 0.02;
  obs_cfg.faults.glitch_count = 2;
  core::SamplerCampaign obs_profiler(bench::default_campaign(64));
  core::AttackConfig obs_acfg;
  obs_acfg.abstain_margin = 0.30;
  obs_acfg.low_confidence_margin = 0.45;
  obs_acfg.value_commit_threshold = 0.05;
  obs_acfg.sign_fit_threshold = 2.5;
  obs_acfg.value_fit_threshold = 4.0;
  core::RevealAttack obs_attack(obs_acfg);
  obs_attack.train(obs_profiler.collect_windows(smoke ? 60 : 120, /*seed_base=*/1));
  lwe::DbddParams obs_params;
  obs_params.secret_dim = 1024;
  obs_params.error_dim = 1024;
  obs_params.q = 132120577.0;
  obs_params.secret_variance = 3.2 * 3.2;
  obs_params.error_variance = 3.2 * 3.2;
  const core::HintPolicy obs_policy;
  const std::vector<std::uint64_t> obs_seeds =
      core::CampaignRunner::stream_seeds(777, smoke ? 3 : 8);
  core::CampaignRunner obs_runner(0);
  // Paired estimator: each pass times one campaign per leg back to back,
  // alternating which leg runs first, and the gate reads the median of the
  // per-pass on/off ratios. A noisy stretch of the host then moves the one
  // ratio whose pair it hit, not the gate; a ratio of two per-leg minima let
  // each minimum come from a different stretch, and at a 2% bound failed
  // about half of the full runs on an unchanged tree.
  const int obs_passes = smoke ? 4 : 24;
  const auto run_obs_off = [&] {
    const auto r = obs_runner.run_recovery_campaign(obs_attack, obs_cfg, obs_seeds,
                                                    obs_policy, obs_params);
    sink += r.report.recovered_windows;
  };
  const auto run_obs_on = [&] {
    core::CampaignDiagnostics diag;
    const auto r = obs_runner.run_recovery_campaign(obs_attack, obs_cfg, obs_seeds,
                                                    obs_policy, obs_params, &diag);
    sink += r.report.recovered_windows;
    sink += diag.registry.counter_value("capture.count");
  };
  const auto time_once = [](const auto& f) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const auto t1 = std::chrono::steady_clock::now();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  };
  run_obs_off();  // warm both instantiations before the timed windows
  run_obs_on();
  std::vector<double> off_times;
  std::vector<double> on_times;
  std::vector<double> ratios;
  for (int pass = 0; pass < obs_passes; ++pass) {
    double off_ns = 0.0;
    double on_ns = 0.0;
    if (pass % 2 == 0) {
      off_ns = time_once(run_obs_off);
      on_ns = time_once(run_obs_on);
    } else {
      on_ns = time_once(run_obs_on);
      off_ns = time_once(run_obs_off);
    }
    off_times.push_back(off_ns);
    on_times.push_back(on_ns);
    ratios.push_back(on_ns / off_ns);
  }
  const double obs_off_ns = median(off_times);
  const double obs_on_ns = median(on_times);
  const double obs_overhead = median(ratios) - 1.0;
  core::CampaignDiagnostics obs_diag;
  const core::RecoveryCampaignResult obs_plain = obs_runner.run_recovery_campaign(
      obs_attack, obs_cfg, obs_seeds, obs_policy, obs_params);
  const core::RecoveryCampaignResult obs_instrumented = obs_runner.run_recovery_campaign(
      obs_attack, obs_cfg, obs_seeds, obs_policy, obs_params, &obs_diag);
  const bool obs_identical =
      campaign_results_equal(obs_plain, obs_instrumented) &&
      obs_diag.registry.counter_value("capture.count") == obs_seeds.size();

  // --- NTT throughput ----------------------------------------------------
  const seal::Modulus q(132120577);
  const seal::NttTables tables(1024, q);
  num::Xoshiro256StarStar ntt_rng(1);
  std::vector<std::uint64_t> poly(1024);
  for (auto& v : poly) v = ntt_rng() % q.value();
  const double ntt_ns = time_ns_per_op(
      [&](std::size_t) {
        tables.forward_transform(poly.data());
        sink += poly[0];
      },
      smoke ? 200 : 4000);

  // --- byte-identity gates ----------------------------------------------
  const bool victim_identical = victim_identity_gate();
  const bool golden_identical = golden_identity_gate();
  const bool identity_ok = victim_identical && golden_identical && capture_identical &&
                           sweep_identical && lll_identical && obs_identical;
  const bool speedups_ok =
      capture_speedup >= kCaptureSpeedupGate && score_speedup >= kTemplateSpeedupGate &&
      sweep_speedup >= kSegSweepSpeedupGate && lll_speedup >= kLllSpeedupGate &&
      obs_overhead <= kObsOverheadGate;
  const bool passed = identity_ok && (smoke || speedups_ok);

  const char* const out_path = "BENCH_perf.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"perf\",\n  \"smoke\": %s,\n",
               smoke ? "true" : "false");
  std::fprintf(out, "  \"victim_events_identical\": %s,\n",
               victim_identical ? "true" : "false");
  std::fprintf(out,
               "  \"template_scoring\": {\"fast_ns_per_obs\": %.1f, "
               "\"baseline_ns_per_obs\": %.1f, \"speedup\": %.2f, \"classes\": %zu, "
               "\"dim\": %zu, \"max_abs_delta\": %.3e},\n",
               score_fast_ns, score_ref_ns, score_speedup, num_classes, dim,
               score_max_delta);
  std::fprintf(out,
               "  \"capture\": {\"block_ns_per_capture\": %.1f, "
               "\"reference_ns_per_capture\": %.1f, \"ms_per_capture\": %.4f, "
               "\"captures_per_second\": %.1f, \"speedup\": %.2f, \"identical\": %s},\n",
               capture_ns, capture_ref_ns, capture_ms, captures_per_second, capture_speedup,
               capture_identical ? "true" : "false");
  std::fprintf(out, "  \"segmentation\": {\"ns_per_trace\": %.1f},\n", segment_ns);
  std::fprintf(out,
               "  \"segmentation_sweep\": {\"fast_ns_per_sweep\": %.1f, "
               "\"baseline_ns_per_sweep\": %.1f, \"speedup\": %.2f, \"identical\": %s},\n",
               sweep_fast_ns, sweep_ref_ns, sweep_speedup,
               sweep_identical ? "true" : "false");
  std::fprintf(out,
               "  \"lll_flat\": {\"dimension\": %zu, \"fast_ns_per_reduce\": %.1f, "
               "\"baseline_ns_per_reduce\": %.1f, \"speedup\": %.2f, \"identical\": %s},\n",
               lll_n, lll_fast_ns, lll_ref_ns, lll_speedup,
               lll_identical ? "true" : "false");
  std::fprintf(out,
               "  \"observability\": {\"captures\": %zu, \"off_ns_per_campaign\": %.1f, "
               "\"on_ns_per_campaign\": %.1f, \"overhead\": %.4f, "
               "\"overhead_max\": %.4f, \"identical\": %s},\n",
               obs_seeds.size(), obs_off_ns, obs_on_ns, obs_overhead, kObsOverheadGate,
               obs_identical ? "true" : "false");
  std::fprintf(out, "  \"ntt_forward_1024\": {\"ns_per_transform\": %.1f},\n", ntt_ns);
  std::fprintf(out, "  \"golden_recovery_identical\": %s,\n",
               golden_identical ? "true" : "false");
  std::fprintf(out,
               "  \"gates\": {\"capture_speedup_min\": %.2f, \"template_speedup_min\": "
               "%.1f, \"segmentation_sweep_speedup_min\": %.1f, "
               "\"lll_speedup_min\": %.1f, \"obs_overhead_max\": %.2f, "
               "\"enforced\": %s, \"passed\": %s},\n",
               kCaptureSpeedupGate, kTemplateSpeedupGate, kSegSweepSpeedupGate,
               kLllSpeedupGate, kObsOverheadGate, smoke ? "false" : "true",
               passed ? "true" : "false");
  // Folding the sinks into the output keeps the timed work observable
  // (nothing for the optimizer to elide).
  std::fprintf(out, "  \"checksum\": \"%llu\"\n}\n",
               static_cast<unsigned long long>(sink % 997) +
                   (std::isfinite(fsink) ? 0ULL : 1ULL));
  std::fclose(out);

  std::printf("capture:          block %.3f ms  reference %.3f ms  speedup %.2fx  "
              "(%.1f captures/s)\n",
              capture_ms, capture_ref_ns / 1e6, capture_speedup, captures_per_second);
  std::printf("template scoring: fast %.0f ns/obs  baseline %.0f ns/obs  speedup %.2fx\n",
              score_fast_ns, score_ref_ns, score_speedup);
  std::printf("segmentation sweep: fast %.0f ns  baseline %.0f ns  speedup %.2fx\n",
              sweep_fast_ns, sweep_ref_ns, sweep_speedup);
  std::printf("lll (n=%zu):      fast %.0f ns  baseline %.0f ns  speedup %.2fx\n", lll_n,
              lll_fast_ns, lll_ref_ns, lll_speedup);
  std::printf("observability:    off %.0f ns  on %.0f ns  overhead %.2f%% (max %.0f%%)\n",
              obs_off_ns, obs_on_ns, 100.0 * obs_overhead, 100.0 * kObsOverheadGate);
  std::printf("segmentation %.0f ns  ntt-1024 %.0f ns\n", segment_ns, ntt_ns);
  std::printf("identity: victim events %s, golden recovery %s, capture %s, sweep %s, "
              "lll %s, observability %s\n",
              victim_identical ? "ok" : "MISMATCH", golden_identical ? "ok" : "MISMATCH",
              capture_identical ? "ok" : "MISMATCH", sweep_identical ? "ok" : "MISMATCH",
              lll_identical ? "ok" : "MISMATCH", obs_identical ? "ok" : "MISMATCH");
  if (!passed) {
    std::fprintf(stderr, "bench_perf: gate FAILED (identity %s, speedups %s)\n",
                 identity_ok ? "ok" : "violated", speedups_ok ? "ok" : "below threshold");
    return 1;
  }
  std::printf("wrote %s\n", out_path);
  return 0;
}

// --------------------------------------------------------------------------
// google-benchmark registrations (default mode)
// --------------------------------------------------------------------------

void BM_NttForward1024(benchmark::State& state) {
  const seal::Modulus q(132120577);
  const seal::NttTables tables(1024, q);
  num::Xoshiro256StarStar rng(1);
  std::vector<std::uint64_t> poly(1024);
  for (auto& v : poly) v = rng() % q.value();
  for (auto _ : state) {
    tables.forward_transform(poly.data());
    benchmark::DoNotOptimize(poly.data());
  }
}
BENCHMARK(BM_NttForward1024);

void BM_NttInverse1024(benchmark::State& state) {
  const seal::Modulus q(132120577);
  const seal::NttTables tables(1024, q);
  num::Xoshiro256StarStar rng(2);
  std::vector<std::uint64_t> poly(1024);
  for (auto& v : poly) v = rng() % q.value();
  for (auto _ : state) {
    tables.inverse_transform(poly.data());
    benchmark::DoNotOptimize(poly.data());
  }
}
BENCHMARK(BM_NttInverse1024);

void BM_FastNttForward1024(benchmark::State& state) {
  const seal::Modulus q(132120577);
  const seal::FastNttTables tables(1024, q);
  num::Xoshiro256StarStar rng(1);
  std::vector<std::uint64_t> poly(1024);
  for (auto& v : poly) v = rng() % q.value();
  for (auto _ : state) {
    tables.forward_transform(poly.data());
    benchmark::DoNotOptimize(poly.data());
  }
}
BENCHMARK(BM_FastNttForward1024);

void BM_FastNttInverse1024(benchmark::State& state) {
  const seal::Modulus q(132120577);
  const seal::FastNttTables tables(1024, q);
  num::Xoshiro256StarStar rng(2);
  std::vector<std::uint64_t> poly(1024);
  for (auto& v : poly) v = rng() % q.value();
  for (auto _ : state) {
    tables.inverse_transform(poly.data());
    benchmark::DoNotOptimize(poly.data());
  }
}
BENCHMARK(BM_FastNttInverse1024);

void BM_BfvEncrypt1024(benchmark::State& state) {
  const seal::Context ctx(seal::EncryptionParameters::seal_128_1024());
  seal::StandardRandomGenerator rng(3);
  const seal::KeyGenerator keygen(ctx, rng);
  const seal::Encryptor encryptor(ctx, keygen.public_key());
  const seal::Plaintext plain(std::vector<std::uint64_t>{1, 2, 3, 4, 5});
  for (auto _ : state) {
    auto ct = encryptor.encrypt(plain, rng);
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_BfvEncrypt1024);

void BM_BfvDecrypt1024(benchmark::State& state) {
  const seal::Context ctx(seal::EncryptionParameters::seal_128_1024());
  seal::StandardRandomGenerator rng(4);
  const seal::KeyGenerator keygen(ctx, rng);
  const seal::Encryptor encryptor(ctx, keygen.public_key());
  const seal::Decryptor decryptor(ctx, keygen.secret_key());
  const auto ct = encryptor.encrypt(seal::Plaintext(std::uint64_t{42}), rng);
  for (auto _ : state) {
    auto plain = decryptor.decrypt(ct);
    benchmark::DoNotOptimize(plain);
  }
}
BENCHMARK(BM_BfvDecrypt1024);

void BM_VictimSampling64(benchmark::State& state) {
  const core::VictimProgram prog = core::build_sampler_firmware(64, {132120577ULL});
  riscv::Machine machine(prog.memory_bytes);
  std::uint32_t seed = 1;
  for (auto _ : state) {
    auto run = core::run_victim(prog, machine, seed++);
    benchmark::DoNotOptimize(run);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_VictimSampling64);

void BM_VictimSampling64Reference(benchmark::State& state) {
  const core::VictimProgram prog = core::build_sampler_firmware(64, {132120577ULL});
  riscv::Machine machine(prog.memory_bytes);
  std::uint32_t seed = 1;
  for (auto _ : state) {
    auto run = core::run_victim_tier(prog, machine, seed++, core::VictimTier::kReference);
    benchmark::DoNotOptimize(run);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_VictimSampling64Reference);

void BM_TemplateScore(benchmark::State& state) {
  const sca::TemplateSet templates = make_template_set(25, 12, 99);
  num::Xoshiro256StarStar rng(7);
  std::vector<double> obs(12);
  for (double& v : obs) v = rng.gaussian(0.0, 2.0);
  for (auto _ : state) {
    auto d = templates.mahalanobis(obs);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_TemplateScore);

void BM_TemplateScoreReference(benchmark::State& state) {
  const sca::TemplateSet templates = make_template_set(25, 12, 99);
  num::Xoshiro256StarStar rng(7);
  std::vector<double> obs(12);
  for (double& v : obs) v = rng.gaussian(0.0, 2.0);
  for (auto _ : state) {
    auto d = templates.mahalanobis_reference(obs);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_TemplateScoreReference);

void BM_CaptureAndSegment(benchmark::State& state) {
  core::CampaignConfig cfg;
  cfg.n = 64;
  core::SamplerCampaign campaign(cfg);
  core::FullCapture cap;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    campaign.capture_into(seed++, cap);
    benchmark::DoNotOptimize(cap);
  }
}
BENCHMARK(BM_CaptureAndSegment);

void BM_AttackWindow(benchmark::State& state) {
  core::CampaignConfig cfg;
  cfg.n = 64;
  core::SamplerCampaign campaign(cfg);
  core::RevealAttack attack;
  attack.train(campaign.collect_windows(60, 1));
  const auto cap = campaign.capture(777);
  const auto windows = core::windows_from_capture(cap);
  std::size_t idx = 0;
  for (auto _ : state) {
    auto guess = attack.attack_window(windows[idx % windows.size()].samples);
    benchmark::DoNotOptimize(guess);
    ++idx;
  }
}
BENCHMARK(BM_AttackWindow);

void BM_Lll12(benchmark::State& state) {
  num::Xoshiro256StarStar rng(5);
  for (auto _ : state) {
    state.PauseTiming();
    lattice::Basis basis(12, std::vector<std::int64_t>(12, 0));
    for (std::size_t i = 0; i < 12; ++i) {
      for (std::size_t j = 0; j < 12; ++j) basis[i][j] = rng.uniform_int(-50, 50);
      basis[i][i] += 150;
    }
    state.ResumeTiming();
    lattice::lll_reduce(basis);
    benchmark::DoNotOptimize(basis);
  }
}
BENCHMARK(BM_Lll12);

}  // namespace

int main(int argc, char** argv) {
  const bench::Cli cli(argc, argv, {{"--json"}, {"--smoke"}}, "--benchmark_");
  if (cli.has("--json")) {
    if (!cli.passthrough().empty()) cli.fail("--benchmark_* flags need the default mode");
    return run_json_harness(cli.has("--smoke"));
  }
  if (cli.has("--smoke")) cli.fail("--smoke needs --json");
  std::vector<char*> bench_argv = {argv[0]};
  bench_argv.insert(bench_argv.end(), cli.passthrough().begin(), cli.passthrough().end());
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
