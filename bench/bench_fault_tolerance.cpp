// Fault-tolerance sweep (extension beyond the paper): how gracefully does
// the single-trace attack degrade when the acquisition is faulty?
//
// A clean-trained attack (profiling is assumed clean — the adversary
// profiles their own device) is run against captures corrupted by
// increasingly severe FaultSpecs: clock jitter, ADC dropout, glitches,
// burst noise, trigger misalignment, rail clipping. The degradation-aware
// pipeline (robust segmentation + classifier abstention + quality-gated
// hint routing) must trade information for correctness: as severity grows
// the hint mix shifts from perfect towards approximate / sign-only / none,
// so the residual bikz rises monotonically — and no level may ever emit a
// wrong perfect hint, which would silently break the DBDD reduction.
//
// Emits BENCH_fault_tolerance.json (one record per severity level) for the
// monotonicity check and plotting.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/attack.hpp"
#include "core/campaign_runner.hpp"
#include "core/hints.hpp"
#include "core/parallel.hpp"
#include "lwe/dbdd.hpp"
#include "obs/diagnostics.hpp"
#include "power/fault_injector.hpp"
#include "sca/report.hpp"

using namespace reveal;
using namespace reveal::core;

namespace {

struct Level {
  const char* name;
  power::FaultSpec faults;
};

std::vector<Level> severity_levels() {
  std::vector<Level> levels;
  levels.push_back({"L0-clean", {}});

  power::FaultSpec l1;
  l1.jitter_sigma = 0.1;
  l1.dropout_rate = 0.01;
  levels.push_back({"L1-light", l1});

  power::FaultSpec l2;
  l2.jitter_sigma = 0.4;
  l2.dropout_rate = 0.02;
  l2.glitch_count = 2;
  levels.push_back({"L2-mild", l2});

  // The acceptance-criteria "moderate" level.
  power::FaultSpec l3;
  l3.jitter_sigma = 1.0;
  l3.dropout_rate = 0.05;
  l3.glitch_count = 4;
  levels.push_back({"L3-moderate", l3});

  power::FaultSpec l4;
  l4.jitter_sigma = 1.5;
  l4.dropout_rate = 0.10;
  l4.glitch_count = 8;
  l4.burst_count = 2;
  levels.push_back({"L4-severe", l4});

  power::FaultSpec l5;
  l5.jitter_sigma = 3.0;
  l5.dropout_rate = 0.20;
  l5.glitch_count = 16;
  l5.burst_count = 4;
  l5.trigger_misalign = 40;
  l5.clip = true;
  levels.push_back({"L5-heavy", l5});
  return levels;
}

struct LevelResult {
  std::string name;
  double severity = 0.0;
  std::size_t captures = 0;
  std::size_t segmentation_ok = 0;        ///< expected window count recovered
  std::size_t recovered_windows = 0;
  std::size_t expected_total = 0;
  std::size_t ok_guesses = 0;
  std::size_t low_confidence_guesses = 0;
  std::size_t abstained_guesses = 0;
  std::size_t perfect_hints = 0;
  std::size_t approximate_hints = 0;
  std::size_t sign_only_hints = 0;
  std::size_t dropped_hints = 0;
  std::size_t sign_correct = 0;           ///< over aligned (full-count) captures
  std::size_t value_correct = 0;
  std::size_t aligned_windows = 0;
  std::size_t wrong_perfect_hints = 0;    ///< must be 0 at every level
  double bikz = 0.0;
  double bits = 0.0;
};

// One severity leg: its own campaign and estimator, captures attacked in
// seed order. Self-contained (no shared mutable state), so the legs can run
// on worker-pool threads with results landing in per-level slots — the
// numbers are identical to the sequential sweep for any worker count.
LevelResult run_level(const RevealAttack& attack, const CampaignConfig& clean,
                      const Level& level, std::size_t captures_per_level,
                      const lwe::DbddParams& params, const HintPolicy& policy,
                      CampaignDiagnostics* diag) {
  CampaignConfig cfg = clean;
  cfg.faults = level.faults;
  SamplerCampaign campaign(cfg);

  LevelResult r;
  r.name = level.name;
  r.severity = level.faults.severity();
  lwe::DbddEstimator estimator(params);
  // Fixed coefficient budget: every level attacks the same firmware runs
  // (seeds), so differences come from the faults alone. A capture whose
  // segmentation fails outright consumes its hint slots with no hints.
  for (std::size_t k = 0; k < captures_per_level; ++k) {
    FullCapture cap;
    if (diag != nullptr) {
      auto span = diag->tracer.span(obs::Stage::kCapture, static_cast<std::uint32_t>(k));
      campaign.capture_into(40000 + k, cap);
    } else {
      campaign.capture_into(40000 + k, cap);
    }
    const RobustCaptureResult res =
        diag != nullptr
            ? attack.attack_capture_robust_traced(cap.trace, cfg.n, cfg.segmentation,
                                                  diag->tracer,
                                                  static_cast<std::uint32_t>(k))
            : attack.attack_capture_robust(cap.trace, cfg.n, cfg.segmentation);
    ++r.captures;
    r.expected_total += cfg.n;
    r.recovered_windows += res.segmentation.segments.size();
    if (diag != nullptr) {
      obs::Registry& reg = diag->registry;
      reg.set_max(reg.gauge("capture.trace_samples.max"),
                  static_cast<double>(cap.trace.size()));
      // Same names and semantics as CampaignRunner's instrumented path.
      reg.add(reg.counter("segmentation.attempts"), res.segmentation.attempts);
      if (res.segmentation.attempts > 1)
        reg.add(reg.counter("segmentation.retries"), res.segmentation.attempts - 1);
      switch (res.segmentation.status) {
        case sca::SegmentationStatus::kOk:
          reg.add(reg.counter("segmentation.ok"));
          break;
        case sca::SegmentationStatus::kRecovered:
          reg.add(reg.counter("segmentation.recovered"));
          break;
        case sca::SegmentationStatus::kDegraded:
          reg.add(reg.counter("segmentation.degraded"));
          break;
        case sca::SegmentationStatus::kFailed:
          reg.add(reg.counter("segmentation.failed"));
          break;
      }
      const obs::Registry::Id wq =
          reg.histogram("segmentation.window_quality", 0.0, 1.0, 20);
      for (const double q : res.segmentation.window_quality) reg.observe(wq, q);
      if (res.guesses.size() == cap.noise.size()) {
        for (std::size_t i = 0; i < res.guesses.size(); ++i) {
          diag->confusion.add(static_cast<std::int32_t>(cap.noise[i]),
                              res.guesses[i].value);
        }
      }
    }
    if (res.segmentation.status == sca::SegmentationStatus::kFailed) {
      r.dropped_hints += cfg.n;
      continue;
    }
    HintSummary hints;
    if (diag != nullptr) {
      auto span = diag->tracer.span(obs::Stage::kHints, static_cast<std::uint32_t>(k));
      hints = integrate_guess_hints(estimator, res.guesses, policy);
    } else {
      hints = integrate_guess_hints(estimator, res.guesses, policy);
    }
    r.perfect_hints += hints.perfect;
    r.approximate_hints += hints.approximate;
    r.sign_only_hints += hints.sign_only;
    r.dropped_hints += hints.skipped + (cfg.n - res.guesses.size());
    for (const auto& g : res.guesses) {
      switch (g.quality) {
        case GuessQuality::kOk: ++r.ok_guesses; break;
        case GuessQuality::kLowConfidence: ++r.low_confidence_guesses; break;
        case GuessQuality::kAbstained: ++r.abstained_guesses; break;
      }
    }
    // Ground-truth scoring needs window <-> coefficient alignment, which
    // only holds when the expected count was recovered.
    if (res.guesses.size() == cap.noise.size()) {
      for (std::size_t i = 0; i < res.guesses.size(); ++i) {
        const auto& g = res.guesses[i];
        const int truth_sign = cap.noise[i] > 0 ? 1 : (cap.noise[i] < 0 ? -1 : 0);
        ++r.aligned_windows;
        r.sign_correct += (g.sign == truth_sign);
        r.value_correct += (g.value == cap.noise[i]);
        if (routes_as_perfect(g, policy) && g.value != cap.noise[i])
          ++r.wrong_perfect_hints;
      }
      ++r.segmentation_ok;
    }
  }
  lwe::SecurityEstimate est;
  if (diag != nullptr) {
    auto span = diag->tracer.span(obs::Stage::kEstimation);
    est = estimator.estimate();
  } else {
    est = estimator.estimate();
  }
  r.bikz = est.beta;
  r.bits = est.bits;

  // The counters the campaign engine would have produced, derived from the
  // level tallies (same names as CampaignRunner's instrumented path —
  // segmentation status counters are folded per capture above) plus the
  // fault injector's activation stats for this level's captures.
  if (diag != nullptr) {
    obs::Registry& reg = diag->registry;
    reg.add(reg.counter("capture.count"), r.captures);
    reg.add(reg.counter("classify.ok"), r.ok_guesses);
    reg.add(reg.counter("classify.low_confidence"), r.low_confidence_guesses);
    reg.add(reg.counter("classify.abstained"), r.abstained_guesses);
    reg.add(reg.counter("hints.perfect"), r.perfect_hints);
    reg.add(reg.counter("hints.approximate"), r.approximate_hints);
    reg.add(reg.counter("hints.sign_only"), r.sign_only_hints);
    reg.add(reg.counter("hints.skipped"), r.dropped_hints);
    const power::FaultStats& faults = campaign.fault_stats();
    reg.add(reg.counter("faults.captures"), faults.captures);
    reg.add(reg.counter("faults.dropped_samples"), faults.dropped_samples);
    reg.add(reg.counter("faults.glitch_samples"), faults.glitch_samples);
    reg.add(reg.counter("faults.burst_windows"), faults.burst_windows);
    reg.add(reg.counter("faults.drifted_captures"), faults.drifted_captures);
    reg.add(reg.counter("faults.clipped_samples"), faults.clipped_samples);
    reg.add(reg.counter("faults.misaligned_captures"), faults.misaligned_captures);
    reg.add(reg.counter("faults.warped_captures"), faults.warped_captures);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Cli cli(argc, argv,
                       {{"--full"}, {"--profiling", "<n>"}, {"--captures", "<n>"},
                        {"--workers", "<n>"}, {"--diag", "<path>"}});
  const bool full = cli.has("--full");
  const auto profiling_runs =
      static_cast<std::size_t>(cli.integer("--profiling", full ? 600 : 250, 1, 1000000));
  const auto captures_per_level =
      static_cast<std::size_t>(cli.integer("--captures", full ? 16 : 8, 1, 100000));

  bench::print_header(
      "Fault tolerance (extension)",
      "Attack degradation vs acquisition-fault severity; hint mix and bikz per level.");

  // Profiling is clean; only the attacked captures are degraded.
  CampaignConfig clean = bench::default_campaign(64);
  SamplerCampaign profiler(clean);
  AttackConfig acfg;
  // Empirically calibrated gates (see tests/test_fault_injection.cpp):
  // clean-capture sign margins stay above ~0.6, corrupted windows fall
  // below ~0.3.
  acfg.abstain_margin = 0.30;
  acfg.low_confidence_margin = 0.45;
  acfg.value_commit_threshold = 0.05;
  acfg.sign_fit_threshold = 2.5;
  acfg.value_fit_threshold = 4.0;
  RevealAttack attack(acfg);
  std::printf("\ntraining on %zu clean profiling runs...\n", profiling_runs);
  attack.train(profiler.collect_windows(profiling_runs, /*seed_base=*/1));

  lwe::DbddParams params;
  params.secret_dim = 1024;
  params.error_dim = 1024;
  params.q = 132120577.0;
  params.secret_variance = 3.2 * 3.2;
  params.error_variance = 3.2 * 3.2;
  const double baseline = lwe::estimate_lwe_security(params).beta;
  std::printf("baseline (no hints): %.1f bikz\n", baseline);

  // The severity legs are independent experiments; fan them out over the
  // worker pool with each result landing in its level's slot. Output is
  // buffered per level and printed afterwards in severity order.
  const HintPolicy policy;
  const std::vector<Level> levels = severity_levels();
  const long workers_flag = cli.integer("--workers", -1, 0, 4096);  // -1: auto
  WorkerPool pool(workers_flag < 0 ? default_num_workers()
                                   : static_cast<std::size_t>(workers_flag));
  // --diag=<path>: per-level diagnostics sinks (one per level slot, so the
  // fan-out stays race-free), merged in severity order afterwards.
  const std::string diag_path = cli.string("--diag");
  std::vector<CampaignDiagnostics> level_diags(diag_path.empty() ? 0 : levels.size());
  std::vector<LevelResult> results(levels.size());
  pool.run_indexed(levels.size(), [&](std::size_t i, std::size_t) {
    results[i] = run_level(attack, clean, levels[i], captures_per_level, params, policy,
                           level_diags.empty() ? nullptr : &level_diags[i]);
  });

  for (const LevelResult& r : results) {
    std::printf("\n%-12s severity %.2f  recovery %zu/%zu windows (%zu/%zu captures)\n",
                r.name.c_str(), r.severity, r.recovered_windows, r.expected_total,
                r.segmentation_ok, r.captures);
    std::printf("  guesses: %zu ok / %zu low-conf / %zu abstained\n", r.ok_guesses,
                r.low_confidence_guesses, r.abstained_guesses);
    std::printf("  hints:   %zu perfect / %zu approx / %zu sign-only / %zu none\n",
                r.perfect_hints, r.approximate_hints, r.sign_only_hints, r.dropped_hints);
    if (r.aligned_windows > 0) {
      std::printf("  aligned accuracy: sign %.1f%%  value %.1f%%  (wrong perfect hints: %zu)\n",
                  100.0 * static_cast<double>(r.sign_correct) /
                      static_cast<double>(r.aligned_windows),
                  100.0 * static_cast<double>(r.value_correct) /
                      static_cast<double>(r.aligned_windows),
                  r.wrong_perfect_hints);
    }
    std::printf("  residual hardness: %.1f bikz (%.1f bits)\n", r.bikz, r.bits);
  }

  // --- invariants ----------------------------------------------------------
  bool monotone = true;
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (results[i].bikz + 1e-9 < results[i - 1].bikz) monotone = false;
  }
  std::size_t wrong_total = 0;
  for (const auto& r : results) wrong_total += r.wrong_perfect_hints;
  std::printf("\nbikz monotone non-decreasing across severity: %s\n",
              monotone ? "PASS" : "FAIL");
  std::printf("wrong perfect hints across all levels: %zu (%s)\n", wrong_total,
              wrong_total == 0 ? "PASS" : "FAIL");

  // --- JSON ----------------------------------------------------------------
  const char* out_path = "BENCH_fault_tolerance.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"baseline_bikz\": %.3f,\n  \"levels\": [\n", baseline);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const auto& f = levels[i].faults;
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"severity\": %.3f,\n"
                 "     \"faults\": {\"jitter_sigma\": %.3f, \"dropout_rate\": %.3f, "
                 "\"glitch_count\": %zu, \"burst_count\": %zu, "
                 "\"trigger_misalign\": %zu, \"clip\": %s},\n"
                 "     \"captures\": %zu, \"segmentation_ok\": %zu, "
                 "\"recovered_windows\": %zu, \"expected_windows\": %zu,\n"
                 "     \"guesses\": {\"ok\": %zu, \"low_confidence\": %zu, "
                 "\"abstained\": %zu},\n"
                 "     \"hints\": {\"perfect\": %zu, \"approximate\": %zu, "
                 "\"sign_only\": %zu, \"none\": %zu},\n"
                 "     \"sign_accuracy\": %.4f, \"value_accuracy\": %.4f, "
                 "\"wrong_perfect_hints\": %zu,\n"
                 "     \"bikz\": %.3f, \"bits\": %.3f}%s\n",
                 r.name.c_str(), r.severity, f.jitter_sigma, f.dropout_rate,
                 f.glitch_count, f.burst_count, f.trigger_misalign,
                 f.clip ? "true" : "false", r.captures, r.segmentation_ok,
                 r.recovered_windows, r.expected_total, r.ok_guesses,
                 r.low_confidence_guesses, r.abstained_guesses, r.perfect_hints,
                 r.approximate_hints, r.sign_only_hints, r.dropped_hints,
                 r.aligned_windows > 0 ? static_cast<double>(r.sign_correct) /
                                             static_cast<double>(r.aligned_windows)
                                       : 0.0,
                 r.aligned_windows > 0 ? static_cast<double>(r.value_correct) /
                                             static_cast<double>(r.aligned_windows)
                                       : 0.0,
                 r.wrong_perfect_hints, r.bikz, r.bits,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"bikz_monotone\": %s,\n  \"wrong_perfect_hints_total\": %zu\n}\n",
               monotone ? "true" : "false", wrong_total);
  std::fclose(out);
  std::printf("wrote %s\n", out_path);

  if (!diag_path.empty()) {
    CampaignDiagnostics merged;
    for (const CampaignDiagnostics& d : level_diags) {
      merged.registry.merge(d.registry);
      merged.tracer.merge(d.tracer);
      merged.confusion.merge(d.confusion);
    }
    obs::write_json_file(merged.report(), diag_path);
    std::printf("wrote %s\n", diag_path.c_str());
  }

  return (monotone && wrong_total == 0) ? 0 : 1;
}
