// Fig. 3 reproduction: (a) a power-trace portion covering three coefficient
// samplings with the distribution-call peaks that delimit them; (b) the
// branch sub-traces of the three sign cases, which are visually and
// statistically distinguishable.

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.hpp"

using namespace reveal;
using namespace reveal::core;

namespace {

/// ASCII rendering: rows of characters, higher power = taller column.
void render_ascii(const std::vector<double>& samples, std::size_t begin, std::size_t end,
                  const std::vector<sca::Segment>& segments) {
  constexpr int kRows = 12;
  double lo = 1e300, hi = -1e300;
  for (std::size_t i = begin; i < end; ++i) {
    lo = std::min(lo, samples[i]);
    hi = std::max(hi, samples[i]);
  }
  const std::size_t width = end - begin;
  const std::size_t stride = std::max<std::size_t>(1, width / 110);
  std::vector<double> cols;
  for (std::size_t i = begin; i < end; i += stride) {
    double peak = samples[i];
    for (std::size_t j = i; j < std::min(i + stride, end); ++j)
      peak = std::max(peak, samples[j]);
    cols.push_back(peak);
  }
  for (int r = kRows; r >= 1; --r) {
    const double level = lo + (hi - lo) * r / kRows;
    std::printf("  %7.2f |", level);
    for (const double c : cols) std::printf("%c", c >= level ? '#' : ' ');
    std::printf("\n");
  }
  std::printf("          +");
  for (std::size_t c = 0; c < cols.size(); ++c) std::printf("-");
  std::printf("\n          ");
  // Mark the bursts (the paper's double-headed-arrow anchors).
  std::string marks(cols.size(), ' ');
  for (const auto& seg : segments) {
    if (seg.burst_begin < begin || seg.burst_begin >= end) continue;
    const std::size_t pos = (seg.burst_begin - begin) / stride;
    if (pos < marks.size()) marks[pos] = '^';
  }
  std::printf("%s  (^ = detected distribution-call burst)\n", marks.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Cli cli(argc, argv, {});
  bench::print_header(
      "Fig. 3",
      "(a) trace portion with locatable per-coefficient peaks; (b) the\n"
      "three branch sub-traces are distinguishable (control-flow leak).");

  CampaignConfig cfg = bench::default_campaign(64);
  SamplerCampaign campaign(cfg);
  const FullCapture cap = campaign.capture(2022);
  std::printf("\ncaptured %zu samples; segmentation found %zu / %zu coefficient windows\n",
              cap.trace.size(), cap.segments.size(), cfg.n);

  // --- Fig. 3(a): find three consecutive coefficients covering all signs --
  std::size_t start_idx = 0;
  for (std::size_t i = 0; i + 2 < cap.noise.size(); ++i) {
    const bool has_pos = cap.noise[i] > 0 || cap.noise[i + 1] > 0 || cap.noise[i + 2] > 0;
    const bool has_neg = cap.noise[i] < 0 || cap.noise[i + 1] < 0 || cap.noise[i + 2] < 0;
    const bool has_zero = cap.noise[i] == 0 || cap.noise[i + 1] == 0 || cap.noise[i + 2] == 0;
    if (has_pos && has_neg && has_zero) {
      start_idx = i;
      break;
    }
  }
  std::printf("\nFig. 3(a): coefficients %zu..%zu sample values (%lld, %lld, %lld)\n",
              start_idx, start_idx + 2, static_cast<long long>(cap.noise[start_idx]),
              static_cast<long long>(cap.noise[start_idx + 1]),
              static_cast<long long>(cap.noise[start_idx + 2]));
  const std::size_t view_begin = cap.segments[start_idx].burst_begin > 8
                                     ? cap.segments[start_idx].burst_begin - 8
                                     : 0;
  const std::size_t view_end =
      std::min(cap.segments[start_idx + 3].burst_begin + 8, cap.trace.size());
  render_ascii(cap.trace, view_begin, view_end, cap.segments);

  // --- Fig. 3(b): mean branch sub-traces per sign class -----------------
  std::printf("\nFig. 3(b): mean branch sub-trace per sign case (first 40 samples\n"
              "of the window after the distribution burst):\n");
  std::map<int, std::pair<std::vector<double>, std::size_t>> acc;
  const std::size_t sub_len = 40;
  std::size_t runs = 40;
  for (std::uint64_t seed = 3000; seed < 3000 + runs; ++seed) {
    const FullCapture c = campaign.capture(seed);
    if (c.segments.size() != cfg.n) continue;
    const auto windows = windows_from_capture(c);
    for (std::size_t i = 0; i < windows.size(); ++i) {
      if (windows[i].samples.size() < sub_len) continue;
      const int sign = c.noise[i] > 0 ? 1 : (c.noise[i] < 0 ? -1 : 0);
      auto& [sum, count] = acc[sign];
      if (sum.empty()) sum.assign(sub_len, 0.0);
      for (std::size_t k = 0; k < sub_len; ++k) sum[k] += windows[i].samples[k];
      ++count;
    }
  }
  for (auto& [sign, pair] : acc) {
    auto& [sum, count] = pair;
    std::printf("  %-9s |", sign > 0 ? "noise > 0" : (sign < 0 ? "noise < 0" : "noise = 0"));
    for (std::size_t k = 0; k < sub_len; ++k) {
      const double v = sum[k] / static_cast<double>(count);
      std::printf("%c", v > 5.2 ? '#' : (v > 4.4 ? '+' : '.'));
    }
    std::printf("  (%zu windows)\n", count);
  }
  std::printf("  legend: '#' high, '+' medium, '.' low mean power\n");

  // Quantify the claim behind both subfigures.
  std::printf("\nchecks:\n");
  bench::print_row("segmentation success (windows found, %)", 100.0,
                   100.0 * static_cast<double>(cap.segments.size()) /
                       static_cast<double>(cfg.n));

  // Sign classification over fresh traces (paper: 100%).
  RevealAttack attack;
  attack.train(campaign.collect_windows(100, 1));
  bench::print_row("branch (sign) identification accuracy (%)", 100.0,
                   bench::attack_campaign(attack, cfg, 5000, 20).sign_accuracy());
  return 0;
}
