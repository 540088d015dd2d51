#include "sca/classifier.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace reveal::sca {

void PatternClassifier::fit(std::span<const WindowView> labelled_windows,
                            std::size_t prefix_length) {
  if (labelled_windows.empty())
    throw std::invalid_argument("PatternClassifier::fit: empty training set");
  const std::size_t common = min_length(labelled_windows);
  prefix_ = prefix_length == 0 ? common : prefix_length;
  if (prefix_ == 0 || prefix_ > common)
    throw std::invalid_argument("PatternClassifier::fit: prefix longer than windows");

  // Pass 1: per-class means.
  std::map<std::int32_t, std::pair<std::vector<double>, std::size_t>> acc;
  for (const WindowView& t : labelled_windows) {
    if (t.label == Trace::kNoLabel)
      throw std::invalid_argument("PatternClassifier::fit: unlabelled window");
    auto& [sum, count] = acc[t.label];
    if (sum.empty()) sum.assign(prefix_, 0.0);
    for (std::size_t i = 0; i < prefix_; ++i) sum[i] += t.samples[i];
    ++count;
  }
  patterns_.clear();
  for (auto& [label, pair] : acc) {
    auto& [sum, count] = pair;
    for (double& v : sum) v /= static_cast<double>(count);
    patterns_.emplace(label, std::move(sum));
  }

  // Pass 2: pooled within-class variance per sample point.
  std::vector<double> var(prefix_, 0.0);
  std::size_t total = 0;
  for (const WindowView& t : labelled_windows) {
    const auto& mean = patterns_.at(t.label);
    for (std::size_t i = 0; i < prefix_; ++i) {
      const double d = t.samples[i] - mean[i];
      var[i] += d * d;
    }
    ++total;
  }
  inv_variance_.assign(prefix_, 0.0);
  const double denom = static_cast<double>(total > patterns_.size()
                                               ? total - patterns_.size()
                                               : 1);
  for (std::size_t i = 0; i < prefix_; ++i) {
    const double v = var[i] / denom;
    inv_variance_[i] = 1.0 / (v + 1e-9);
  }
}

std::map<std::int32_t, double> PatternClassifier::distances(
    std::span<const double> window) const {
  if (patterns_.empty()) throw std::logic_error("PatternClassifier: not fitted");
  if (window.size() < prefix_)
    throw std::invalid_argument("PatternClassifier: window shorter than prefix");
  std::map<std::int32_t, double> out;
  for (const auto& [label, mean] : patterns_) {
    double acc = 0.0;
    for (std::size_t i = 0; i < prefix_; ++i) {
      const double d = window[i] - mean[i];
      acc += d * d * inv_variance_[i];
    }
    out.emplace(label, std::sqrt(acc));
  }
  return out;
}

std::int32_t PatternClassifier::classify(std::span<const double> window) const {
  const auto dists = distances(window);
  std::int32_t best_label = 0;
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [label, d] : dists) {
    if (d < best) {
      best = d;
      best_label = label;
    }
  }
  return best_label;
}

}  // namespace reveal::sca
