#include "sca/metrics.hpp"

#include <stdexcept>

namespace reveal::sca {

std::size_t rank_of_truth(const std::vector<std::int32_t>& support,
                          const std::vector<double>& posterior, std::int32_t truth) {
  if (support.size() != posterior.size())
    throw std::invalid_argument("rank_of_truth: support/posterior size mismatch");
  double truth_prob = -1.0;
  for (std::size_t i = 0; i < support.size(); ++i) {
    if (support[i] == truth) {
      truth_prob = posterior[i];
      break;
    }
  }
  if (truth_prob < 0.0) return support.size() + 1;
  std::size_t rank = 1;
  for (const double p : posterior) {
    if (p > truth_prob) ++rank;
  }
  return rank;
}

void RankAccumulator::add(std::size_t rank) {
  if (rank == 0) throw std::invalid_argument("RankAccumulator: ranks are 1-based");
  ranks_.push_back(rank);
}

double RankAccumulator::guessing_entropy() const {
  if (ranks_.empty()) return 0.0;
  double acc = 0.0;
  for (const std::size_t r : ranks_) acc += static_cast<double>(r);
  return acc / static_cast<double>(ranks_.size());
}

double RankAccumulator::success_rate_at(std::size_t k) const {
  if (ranks_.empty()) return 0.0;
  std::size_t hits = 0;
  for (const std::size_t r : ranks_) hits += (r <= k);
  return static_cast<double>(hits) / static_cast<double>(ranks_.size());
}

}  // namespace reveal::sca
