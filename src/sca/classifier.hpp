#pragma once
// Control-flow (branch) classifier — paper vulnerability 1 / Fig. 3b.
//
// The three sign branches execute different instruction sequences, so their
// sub-traces exhibit distinct power patterns. Classification is by
// variance-weighted (Fisher) distance to per-class mean patterns over a
// fixed-length window prefix: samples whose within-class variance is high
// (value-dependent leakage, PRNG activity) are down-weighted, while the
// control-flow-divergent samples dominate — enough for the 100% sign
// recovery the paper reports.

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "sca/trace.hpp"

namespace reveal::sca {

class PatternClassifier {
 public:
  /// Fits mean patterns and the pooled per-sample within-class variance
  /// from labelled windows, using the first `prefix_length` samples
  /// (0 = common minimum length).
  void fit(std::span<const WindowView> labelled_windows, std::size_t prefix_length = 0);

  [[nodiscard]] bool fitted() const noexcept { return !patterns_.empty(); }
  [[nodiscard]] std::size_t prefix_length() const noexcept { return prefix_; }

  /// Classifies a window by minimal variance-weighted distance to the class
  /// means; throws std::logic_error if not fitted, std::invalid_argument if
  /// the window is shorter than the prefix.
  [[nodiscard]] std::int32_t classify(std::span<const double> window) const;

  /// Weighted distances to every class mean (diagnostics / separation).
  [[nodiscard]] std::map<std::int32_t, double> distances(
      std::span<const double> window) const;

 private:
  std::size_t prefix_ = 0;
  std::map<std::int32_t, std::vector<double>> patterns_;
  std::vector<double> inv_variance_;  // pooled within-class, per sample
};

}  // namespace reveal::sca
