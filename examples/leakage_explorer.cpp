// Leakage explorer: visualize what the simulated target leaks.
//
// Renders a trace portion in ASCII, overlays the detected segmentation,
// shows the per-sign mean windows, and prints the SOSD curve with the
// selected POIs — the raw material of paper §III-C/D.
//
//   ./leakage_explorer [n] [noise_sigma]

#include <algorithm>
#include <cstdio>
#include <map>
#include <span>
#include <vector>

#include "cli_args.hpp"
#include "core/acquisition.hpp"
#include "sca/poi.hpp"

using namespace reveal;
using namespace reveal::core;

int main(int argc, char** argv) {
  std::size_t n = 16;
  double sigma = 0.15;
  if (argc > 3 || (argc > 1 && !examples::parse_arg<std::size_t>(argv[1], 1, 1024, n)) ||
      (n & (n - 1)) != 0 || (argc > 2 && !examples::parse_arg(argv[2], 0.0, 100.0, sigma))) {
    std::fprintf(stderr, "usage: %s [n 1..1024, a power of two] [noise_sigma 0..100]\n",
                 argv[0]);
    return 64;
  }

  CampaignConfig cfg;
  cfg.n = n;
  cfg.leakage.noise_sigma = sigma;
  SamplerCampaign campaign(cfg);

  // The rendering below walks the first windows of the capture. Too much
  // noise shorts the segmentation: say so instead of indexing past it.
  const FullCapture cap = campaign.capture(1);
  if (cap.segments.size() != n) {
    std::fprintf(stderr,
                 "leakage_explorer: the capture segments into %zu of %zu windows at noise "
                 "sigma %.2f; lower the noise\n",
                 cap.segments.size(), n, sigma);
    return 1;
  }
  std::printf("== leakage explorer: n = %zu coefficients, noise sigma = %.2f ==\n\n", n,
              sigma);
  std::printf("trace: %zu samples, %zu/%zu windows segmented\n", cap.trace.size(),
              cap.segments.size(), n);
  std::printf("sampled coefficients:");
  for (const auto v : cap.noise) std::printf(" %lld", static_cast<long long>(v));
  std::printf("\n\n");

  // Render the first three windows.
  const std::size_t begin = cap.segments.front().burst_begin > 4
                                ? cap.segments.front().burst_begin - 4
                                : 0;
  const std::size_t end = std::min(cap.segments[std::min<std::size_t>(3, n - 1)].burst_begin + 4,
                                   cap.trace.size());
  double lo = 1e300, hi = -1e300;
  for (std::size_t i = begin; i < end; ++i) {
    lo = std::min(lo, cap.trace[i]);
    hi = std::max(hi, cap.trace[i]);
  }
  constexpr int kRows = 10;
  const std::size_t stride = std::max<std::size_t>(1, (end - begin) / 100);
  for (int r = kRows; r >= 1; --r) {
    const double level = lo + (hi - lo) * r / kRows;
    std::printf("%8.2f |", level);
    for (std::size_t i = begin; i < end; i += stride) {
      double peak = cap.trace[i];
      for (std::size_t j = i; j < std::min(i + stride, end); ++j)
        peak = std::max(peak, cap.trace[j]);
      std::printf("%c", peak >= level ? '#' : ' ');
    }
    std::printf("\n");
  }
  std::printf("          (first windows; tall 35-cycle blocks = sequential multiply\n"
              "           of the distribution call -> the segmentation anchors)\n\n");

  // Per-sign mean windows + SOSD.
  std::printf("collecting labelled windows for the POI analysis...\n");
  std::size_t rejected = 0;
  const auto windows = campaign.collect_windows(200, /*seed_base=*/10, &rejected);
  std::vector<sca::WindowView> by_sign;
  std::vector<sca::WindowView> negatives;
  for (const auto& w : windows) {
    if (w.samples.size() < 110) continue;
    const std::span<const double> prefix = std::span(w.samples).first(110);
    by_sign.push_back({prefix, w.true_value > 0 ? 1 : (w.true_value < 0 ? -1 : 0)});
    if (w.true_value < 0) negatives.push_back({prefix, w.true_value});
  }
  // The SOSD curve compares two negative values at least.
  const auto neg_means = negatives.empty() ? sca::ClassMeans{} : sca::class_means(negatives);
  if (neg_means.size() < 2) {
    std::fprintf(stderr,
                 "leakage_explorer: too few profiling windows survive for the POI analysis "
                 "(%zu of 200 captures segmented into %zu windows)\n",
                 200 - rejected, n);
    return 1;
  }
  const auto sign_means = sca::class_means(by_sign);
  std::printf("\nmean window per sign (110 samples, '#' >5.5, '+' >4.5, '.' else):\n");
  for (const auto& [label, mean] : sign_means) {
    std::printf("  %+d |", label);
    for (const double v : mean) std::printf("%c", v > 5.5 ? '#' : (v > 4.5 ? '+' : '.'));
    std::printf("\n");
  }

  const auto sosd = sca::sosd_curve(neg_means);
  const auto pois = sca::select_pois(sosd, 12, 2);
  const double sosd_max = *std::max_element(sosd.begin(), sosd.end());
  std::printf("\nSOSD curve across the negative-value classes (x = POI):\n  ");
  for (std::size_t i = 0; i < sosd.size(); ++i) {
    const bool is_poi = std::find(pois.begin(), pois.end(), i) != pois.end();
    const double rel = sosd[i] / sosd_max;
    std::printf("%c", is_poi ? 'X' : (rel > 0.5 ? '#' : (rel > 0.1 ? '+' : '.')));
  }
  std::printf("\n  POIs at samples:");
  for (const auto p : pois) std::printf(" %zu", p);
  std::printf("\n\nreading: the leakage concentrates right after the burst (the\n"
              "srai writing the sampled value) and at the negation/store of the\n"
              "negative branch — vulnerabilities 2 and 3 of the paper.\n");
  return 0;
}
