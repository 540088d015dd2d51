// Related-work contrast (paper §I): prior single-trace sampler attacks
// target CDT-based Gaussian samplers (Kim et al. [10], Zhang et al. [12])
// and "are not directly applicable on SEAL". This bench runs a CDT sampler
// on the same simulated target and reproduces that literature's result: the
// early-exit table scan leaks every coefficient through pure TIMING, and
// the constant-time scan closes exactly that channel.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/victim.hpp"
#include "power/trace_recorder.hpp"
#include "sca/segmentation.hpp"

using namespace reveal;
using namespace reveal::core;

namespace {

struct TimingOutcome {
  double value_accuracy = 0.0;   ///< coefficients recovered by timing alone
  double duration_spread = 0.0;  ///< max-min window duration (samples)
};

/// Per-coefficient windows for the CDT firmware are delimited by the store
/// bursts of the sign assignment; simpler and equally faithful: use the
/// firmware's deterministic structure — each coefficient starts at the
/// PRNG xorshift triple. We recover per-coefficient *durations* directly
/// from the cycle counts between stores by instrumenting with a pc watch.
TimingOutcome timing_attack(bool constant_time, std::size_t runs) {
  const std::size_t n = 64;
  const VictimProgram prog = build_cdt_firmware(n, {132120577ULL}, constant_time);
  riscv::Machine machine(prog.memory_bytes);
  power::LeakageParams leakage;  // defaults
  const power::LeakageModel model(leakage);

  TimingOutcome out;
  std::size_t correct = 0, total = 0;
  double min_dur = 1e18, max_dur = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    power::TraceRecorder recorder(model, 1000 + r);
    recorder.watch_pc(prog.loop_pc, /*tag=*/0, /*increment=*/true);
    const VictimRun run =
        run_victim(prog, machine, static_cast<std::uint32_t>(0xCD7 + r * 7919), &recorder);
    const auto& markers = recorder.markers();
    if (markers.size() < n) continue;

    // Duration of coefficient i = samples between loop-head visits. The
    // leaky scan contributes ~16 cycles per table index, so duration maps
    // affinely to (value + 41); calibrate the affine map per variant from
    // the first run (profiling on the clone).
    static thread_local double slope[2] = {0.0, 0.0};
    static thread_local double intercept[2] = {0.0, 0.0};
    const int variant = constant_time ? 1 : 0;
    std::vector<double> durations(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double next = i + 1 < markers.size()
                              ? static_cast<double>(markers[i + 1].sample_index)
                              : static_cast<double>(recorder.samples().size());
      durations[i] = next - static_cast<double>(markers[i].sample_index);
      min_dur = std::min(min_dur, durations[i]);
      max_dur = std::max(max_dur, durations[i]);
    }
    if (slope[variant] == 0.0) {
      // Least-squares fit duration ~ a * value + b using ground truth
      // (profiling phase on the attacker's own device).
      double sx = 0, sy = 0, sxx = 0, sxy = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const double x = static_cast<double>(run.noise[i]);
        sx += x;
        sy += durations[i];
        sxx += x * x;
        sxy += x * durations[i];
      }
      const double denom = n * sxx - sx * sx;
      slope[variant] = denom != 0.0 ? (n * sxy - sx * sy) / denom : 0.0;
      intercept[variant] = (sy - slope[variant] * sx) / n;
      continue;  // calibration run is not scored
    }
    for (std::size_t i = 0; i < n; ++i) {
      ++total;
      if (std::fabs(slope[variant]) < 1e-9) continue;  // timing carries nothing
      const double est = (durations[i] - intercept[variant]) / slope[variant];
      if (std::llround(est) == run.noise[i]) ++correct;
    }
  }
  out.value_accuracy =
      total > 0 ? 100.0 * static_cast<double>(correct) / static_cast<double>(total) : 0.0;
  out.duration_spread = max_dur - min_dur;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Cli cli(argc, argv, {{"--quick"}});
  const bool quick = cli.has("--quick");
  bench::print_header(
      "Related work: CDT sampler timing leak",
      "The constructions attacked by refs [10]/[12], run on the same target:\n"
      "early-exit CDT scans leak values through pure timing.");

  const std::size_t runs = quick ? 4 : 10;
  const TimingOutcome leaky = timing_attack(false, runs);
  const TimingOutcome ct = timing_attack(true, runs);

  std::printf("\n%-38s %16s %18s\n", "sampler variant", "timing-only acc %",
              "duration spread");
  std::printf("%-38s %16.1f %18.0f\n", "CDT, early-exit scan (leaky)",
              leaky.value_accuracy, leaky.duration_spread);
  std::printf("%-38s %16.1f %18.0f\n", "CDT, constant-time scan", ct.value_accuracy,
              ct.duration_spread);

  std::printf(
      "\nreading: the leaky CDT's per-coefficient duration is an affine\n"
      "function of the sampled value — values fall out of timestamps alone,\n"
      "no power analysis needed (the [10]/[12] result). The constant-time\n"
      "scan flattens timing completely; RevEAL matters precisely because\n"
      "SEAL v3.2 does NOT use a CDT sampler, so those attacks (and their\n"
      "countermeasures) do not transfer — its clipped-normal + sign-branch\n"
      "structure leaks differently (Tables I-IV).\n");
  return 0;
}
