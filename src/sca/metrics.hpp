#pragma once
// Standard side-channel evaluation metrics: ranks, guessing entropy and
// success rate at rank k — the vocabulary used to compare attacks beyond a
// plain top-1 confusion matrix.

#include <cstdint>
#include <vector>

namespace reveal::sca {

/// 1-based rank of the true value within a posterior: 1 = the attack's top
/// guess is correct. Ties count in favour of the attacker (lowest rank).
/// Returns support.size() + 1 if the truth is not in the support at all.
[[nodiscard]] std::size_t rank_of_truth(const std::vector<std::int32_t>& support,
                                        const std::vector<double>& posterior,
                                        std::int32_t truth);

/// Accumulates ranks over many attacked measurements.
class RankAccumulator {
 public:
  void add(std::size_t rank);

  [[nodiscard]] std::size_t count() const noexcept { return ranks_.size(); }
  /// Guessing entropy: the mean rank of the correct value.
  [[nodiscard]] double guessing_entropy() const;
  /// Fraction (0..1) of measurements whose true value ranked <= k.
  [[nodiscard]] double success_rate_at(std::size_t k) const;

 private:
  std::vector<std::size_t> ranks_;
};

}  // namespace reveal::sca
