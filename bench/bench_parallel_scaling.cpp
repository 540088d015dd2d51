// Parallel campaign-engine scaling (infrastructure bench): throughput of
// the full recovery campaign (capture -> robust segmentation -> sign/value
// classification -> hint routing) at increasing worker counts, with the
// byte-identity guarantee re-checked at every point.
//
// Speedup is bounded by the physical cores of the measurement host — the
// engine guarantees identical *results* at any worker count, while the
// *throughput* column is hardware-dependent. The JSON therefore records
// hardware_concurrency next to the timings; on a single-core runner every
// speedup is ~1.0 by construction and the bench only proves determinism
// plus the absence of slowdown-by-contention.
//
// Emits BENCH_parallel_scaling.json.

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/attack.hpp"
#include "core/campaign_runner.hpp"
#include "core/hints.hpp"
#include "core/parallel.hpp"
#include "lwe/dbdd.hpp"

using namespace reveal;
using namespace reveal::core;

namespace {

bool reports_identical(const sca::RecoveryReport& a, const sca::RecoveryReport& b) {
  return a.expected_windows == b.expected_windows &&
         a.recovered_windows == b.recovered_windows &&
         a.segmentation_status == b.segmentation_status &&
         a.segmentation_attempts == b.segmentation_attempts &&
         a.burst_consistency == b.burst_consistency &&  // bit-equal, not approx
         a.ok_guesses == b.ok_guesses &&
         a.low_confidence_guesses == b.low_confidence_guesses &&
         a.abstained_guesses == b.abstained_guesses &&
         a.perfect_hints == b.perfect_hints &&
         a.approximate_hints == b.approximate_hints &&
         a.sign_only_hints == b.sign_only_hints &&
         a.dropped_hints == b.dropped_hints && a.bikz == b.bikz && a.bits == b.bits;
}

struct Point {
  std::size_t workers = 0;
  double seconds = 0.0;
  double traces_per_sec = 0.0;
  double speedup = 1.0;
  bool matches_serial = false;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::Cli cli(argc, argv,
                       {{"--full"}, {"--profiling", "<n>"}, {"--captures", "<n>"}});
  const bool full = cli.has("--full");
  const auto profiling_runs =
      static_cast<std::size_t>(cli.integer("--profiling", full ? 400 : 200, 1, 1000000));
  const auto captures =
      static_cast<std::size_t>(cli.integer("--captures", full ? 32 : 12, 1, 100000));

  bench::print_header(
      "Parallel campaign scaling (infrastructure)",
      "Recovery-campaign throughput vs worker count; results byte-identical.");
  std::printf("\nhardware_concurrency: %u, campaign: %zu captures\n",
              std::thread::hardware_concurrency(), captures);

  CampaignConfig cfg = bench::default_campaign(64);
  cfg.num_workers = 0;  // profiling below times the serial reference too
  AttackConfig acfg;
  acfg.abstain_margin = 0.30;
  acfg.low_confidence_margin = 0.45;
  acfg.value_commit_threshold = 0.05;
  acfg.sign_fit_threshold = 2.5;
  acfg.value_fit_threshold = 4.0;
  RevealAttack attack(acfg);
  {
    SamplerCampaign profiler(cfg);
    std::printf("training on %zu clean profiling runs...\n", profiling_runs);
    attack.train(profiler.collect_windows(profiling_runs, /*seed_base=*/1));
  }

  const lwe::DbddParams params = bench::seal128_params_for(captures, cfg.n);
  const HintPolicy policy;
  const std::vector<std::uint64_t> seeds = CampaignRunner::stream_seeds(90000, captures);

  const std::vector<std::size_t> worker_counts = {0, 1, 2, 4, 8};
  std::vector<Point> points;
  RecoveryCampaignResult serial_result;
  double serial_seconds = 0.0;

  for (const std::size_t workers : worker_counts) {
    CampaignRunner runner(workers);
    const auto t0 = std::chrono::steady_clock::now();
    const RecoveryCampaignResult result =
        runner.run_recovery_campaign(attack, cfg, seeds, policy, params);
    const auto t1 = std::chrono::steady_clock::now();

    Point p;
    p.workers = workers;
    p.seconds = std::chrono::duration<double>(t1 - t0).count();
    p.traces_per_sec = static_cast<double>(captures) / p.seconds;
    if (workers == 0) {
      serial_result = result;
      serial_seconds = p.seconds;
      p.matches_serial = true;
    } else {
      p.matches_serial = reports_identical(result.report, serial_result.report) &&
                         result.hints == serial_result.hints;
    }
    p.speedup = serial_seconds / p.seconds;
    points.push_back(p);
    std::printf("  workers %zu%s: %7.3f s  %6.1f traces/s  speedup %4.2fx  %s\n",
                workers, workers == 0 ? " (serial)" : "        ", p.seconds,
                p.traces_per_sec, p.speedup,
                p.matches_serial ? "results identical" : "RESULTS DIVERGE");
  }

  bool all_match = true;
  for (const Point& p : points) all_match = all_match && p.matches_serial;
  std::printf("\nbyte-identical across all worker counts: %s\n",
              all_match ? "PASS" : "FAIL");
  bench::print_note(
      "speedup is bounded by physical cores; see hardware_concurrency in the JSON.");

  const char* out_path = "BENCH_parallel_scaling.json";
  std::FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(out,
               "{\n  \"hardware_concurrency\": %u,\n  \"captures\": %zu,\n"
               "  \"serial_seconds\": %.6f,\n  \"points\": [\n",
               std::thread::hardware_concurrency(), captures, serial_seconds);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(out,
                 "    {\"workers\": %zu, \"seconds\": %.6f, \"traces_per_sec\": %.3f, "
                 "\"speedup\": %.4f, \"matches_serial\": %s}%s\n",
                 p.workers, p.seconds, p.traces_per_sec, p.speedup,
                 p.matches_serial ? "true" : "false", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"byte_identical\": %s\n}\n", all_match ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", out_path);

  return all_match ? 0 : 1;
}
