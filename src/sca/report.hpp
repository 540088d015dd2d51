#pragma once
// Attack evaluation reports: confusion matrices and success-rate tables in
// the format of the paper's Table I.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sca/segmentation.hpp"

namespace reveal::sca {

/// Confusion counts between true values (columns in the paper's Table I)
/// and predicted values (rows).
class ConfusionMatrix {
 public:
  void add(std::int32_t truth, std::int32_t predicted);

  /// Adds another matrix's counts into this one. Counts are integers, so
  /// merging per-worker partials in any order equals the sequential tally
  /// — the same worker-count-invariance contract as HintTally.
  void merge(const ConfusionMatrix& other);

  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] std::size_t count(std::int32_t truth, std::int32_t predicted) const;
  [[nodiscard]] std::size_t truth_count(std::int32_t truth) const;

  /// Percentage of `truth` classified as `predicted` (0 if unseen truth).
  [[nodiscard]] double percent(std::int32_t truth, std::int32_t predicted) const;
  /// Diagonal accuracy for one truth value.
  [[nodiscard]] double accuracy(std::int32_t truth) const { return percent(truth, truth); }
  /// Overall diagonal accuracy.
  [[nodiscard]] double overall_accuracy() const;

  /// All truth values seen, sorted.
  [[nodiscard]] std::vector<std::int32_t> truths() const;
  /// All predicted values seen, sorted.
  [[nodiscard]] std::vector<std::int32_t> predictions() const;

  /// Renders a Table-I style matrix restricted to columns in
  /// [col_lo, col_hi] and rows in [row_lo, row_hi].
  [[nodiscard]] std::string to_table(std::int32_t row_lo, std::int32_t row_hi,
                                     std::int32_t col_lo, std::int32_t col_hi) const;

  /// Binary snapshot of the (truth, predicted) counts; load() rebuilds the
  /// marginals from them and bounds-checks the cell count before allocating.
  void save(std::ostream& out) const;
  [[nodiscard]] static ConfusionMatrix load(std::istream& in);

 private:
  std::map<std::pair<std::int32_t, std::int32_t>, std::size_t> counts_;  // (truth, pred)
  std::map<std::int32_t, std::size_t> truth_totals_;
  std::map<std::int32_t, std::size_t> pred_totals_;
  std::size_t total_ = 0;

  friend bool operator==(const ConfusionMatrix&, const ConfusionMatrix&) = default;
};

/// Human-readable name of a segmentation status.
[[nodiscard]] const char* to_string(SegmentationStatus status);

/// Summary of a degradation-aware recovery run: how much information each
/// pipeline stage lost (segmentation -> classification -> hint routing) and
/// what residual attack cost (bikz/bits) the surviving hints imply.
struct RecoveryReport {
  // Segmentation stage.
  std::size_t expected_windows = 0;
  std::size_t recovered_windows = 0;
  SegmentationStatus segmentation_status = SegmentationStatus::kFailed;
  std::size_t segmentation_attempts = 0;
  double burst_consistency = 0.0;

  // Classification stage (guess-quality mix).
  std::size_t ok_guesses = 0;
  std::size_t low_confidence_guesses = 0;
  std::size_t abstained_guesses = 0;

  // Hint-routing stage.
  std::size_t perfect_hints = 0;
  std::size_t approximate_hints = 0;
  std::size_t sign_only_hints = 0;
  std::size_t dropped_hints = 0;

  // Residual security of the hinted instance.
  double bikz = 0.0;
  double bits = 0.0;

  [[nodiscard]] std::string to_string() const;

  /// Field-wise equality (bitwise for the doubles): the oracle the
  /// checkpoint/resume byte-identity tests compare against.
  friend bool operator==(const RecoveryReport&, const RecoveryReport&) = default;
};

}  // namespace reveal::sca
