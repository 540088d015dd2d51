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

// One severity leg's numbers, all read off the campaign engine's outputs:
// the report, the per-capture results, and what the level added to the
// sweep's diagnostics sink — its counters and its confusion tally, whose
// windows are the ground-truth-aligned ones.
struct LevelResult {
  std::string name;
  double severity = 0.0;
  std::size_t captures = 0;
  std::size_t segmentation_ok = 0;        ///< expected window count recovered
  std::size_t none_hints = 0;             ///< expected windows without a hint
  std::size_t sign_correct = 0;           ///< over aligned (full-count) captures
  std::size_t value_correct = 0;
  std::size_t aligned_windows = 0;
  std::size_t wrong_perfect_hints = 0;    ///< must be 0 at every level
  sca::RecoveryReport report;

  /// Share of the aligned windows; 0 when no capture kept its alignment.
  [[nodiscard]] double accuracy(std::size_t correct) const {
    return aligned_windows > 0
               ? static_cast<double>(correct) / static_cast<double>(aligned_windows)
               : 0.0;
  }
};

/// The sink totals a level's numbers are read from: a level's share is the
/// difference of the snapshots taken before and after its campaign.
struct SinkTotals {
  std::size_t aligned_windows = 0;
  std::size_t value_correct = 0;
  std::size_t sign_correct = 0;
  std::size_t wrong_perfect = 0;
};

SinkTotals sink_totals(const CampaignDiagnostics& diag) {
  const auto counter = [&](const char* name) -> std::size_t {
    return diag.registry.contains(name) ? diag.registry.counter_value(name) : 0;
  };
  SinkTotals t;
  t.aligned_windows = diag.confusion.total();
  for (const std::int32_t v : diag.confusion.truths())
    t.value_correct += diag.confusion.count(v, v);
  t.sign_correct = counter("classify.sign_correct");
  t.wrong_perfect = counter("hints.wrong_perfect");
  return t;
}

LevelResult summarize(const Level& level, const RecoveryCampaignResult& campaign,
                      const SinkTotals& before, const SinkTotals& after, std::size_t n) {
  LevelResult r;
  r.name = level.name;
  r.severity = level.faults.severity();
  r.report = campaign.report;
  r.captures = campaign.captures.size();
  for (const RobustCaptureResult& c : campaign.captures)
    r.segmentation_ok += c.guesses.size() == n;
  r.none_hints = r.report.expected_windows - r.report.perfect_hints -
                 r.report.approximate_hints - r.report.sign_only_hints;
  r.aligned_windows = after.aligned_windows - before.aligned_windows;
  r.value_correct = after.value_correct - before.value_correct;
  r.sign_correct = after.sign_correct - before.sign_correct;
  r.wrong_perfect_hints = after.wrong_perfect - before.wrong_perfect;
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

  const lwe::DbddParams params = bench::seal128_params_for(captures_per_level, clean.n);
  const double baseline = lwe::estimate_lwe_security(params).beta;
  std::printf("baseline (no hints): %.1f bikz\n", baseline);

  // Every level attacks the same firmware runs (seeds 40000+k), so
  // differences come from the faults alone; a capture whose segmentation
  // fails outright consumes its hint slots with no hints. Each level is
  // one engine campaign adding into one diagnostics sink, and what it adds
  // feeds the table below.
  const HintPolicy policy;
  const std::vector<Level> levels = severity_levels();
  const long workers_flag = cli.integer("--workers", -1, 0, 4096);  // -1: auto
  CampaignRunner runner(workers_flag < 0 ? default_num_workers()
                                         : static_cast<std::size_t>(workers_flag));
  std::vector<std::uint64_t> seeds(captures_per_level);
  for (std::size_t k = 0; k < seeds.size(); ++k) seeds[k] = 40000 + k;
  CampaignDiagnostics diag;
  std::vector<LevelResult> results;
  for (const Level& level : levels) {
    CampaignConfig cfg = clean;
    cfg.faults = level.faults;
    const SinkTotals before = sink_totals(diag);
    const RecoveryCampaignResult campaign =
        runner.run_recovery_campaign(attack, cfg, seeds, policy, params, &diag);
    results.push_back(summarize(level, campaign, before, sink_totals(diag), cfg.n));
  }

  for (const LevelResult& r : results) {
    const sca::RecoveryReport& p = r.report;
    std::printf("\n%-12s severity %.2f  recovery %zu/%zu windows (%zu/%zu captures)\n",
                r.name.c_str(), r.severity, p.recovered_windows, p.expected_windows,
                r.segmentation_ok, r.captures);
    std::printf("  guesses: %zu ok / %zu low-conf / %zu abstained\n", p.ok_guesses,
                p.low_confidence_guesses, p.abstained_guesses);
    std::printf("  hints:   %zu perfect / %zu approx / %zu sign-only / %zu none\n",
                p.perfect_hints, p.approximate_hints, p.sign_only_hints, r.none_hints);
    if (r.aligned_windows > 0) {
      std::printf("  aligned accuracy: sign %.1f%%  value %.1f%%  (wrong perfect hints: %zu)\n",
                  100.0 * r.accuracy(r.sign_correct), 100.0 * r.accuracy(r.value_correct),
                  r.wrong_perfect_hints);
    }
    std::printf("  residual hardness: %.1f bikz (%.1f bits)\n", p.bikz, p.bits);
  }

  // --- invariants ----------------------------------------------------------
  bool monotone = true;
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (results[i].report.bikz + 1e-9 < results[i - 1].report.bikz) monotone = false;
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
    const LevelResult& r = results[i];
    const sca::RecoveryReport& p = r.report;
    const power::FaultSpec& f = levels[i].faults;
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
                 p.recovered_windows, p.expected_windows, p.ok_guesses,
                 p.low_confidence_guesses, p.abstained_guesses, p.perfect_hints,
                 p.approximate_hints, p.sign_only_hints, r.none_hints,
                 r.accuracy(r.sign_correct), r.accuracy(r.value_correct),
                 r.wrong_perfect_hints, p.bikz, p.bits, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"bikz_monotone\": %s,\n  \"wrong_perfect_hints_total\": %zu\n}\n",
               monotone ? "true" : "false", wrong_total);
  std::fclose(out);
  std::printf("wrote %s\n", out_path);

  // --diag=<path>: the engine's diagnostics over all six levels.
  const std::string diag_path = cli.string("--diag");
  if (!diag_path.empty() && !bench::write_diag(diag.report(), diag_path)) return 1;

  return (monotone && wrong_total == 0) ? 0 : 1;
}
