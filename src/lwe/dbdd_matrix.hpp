#pragma once
// Full-covariance DBDD estimator (the dense "full Sigma" companion of the
// lightweight dim/log-vol tracker in dbdd.hpp).
//
// Maintains the ellipsoid covariance Sigma over all secret+error
// coordinates explicitly, so hints along ARBITRARY directions v — not just
// coordinates — can be integrated with the DDGR20 update rules:
//
//   perfect hint <s, v> = l:
//     nu    += 1/2 ln(v^T Sigma v)        (normalized log-volume)
//     Sigma -= Sigma v v^T Sigma / (v^T Sigma v);  dim -= 1
//   approximate hint <s, v> = l + e,  e ~ N(0, eps):
//     nu    += 1/2 ln((v^T Sigma v + eps) / eps)
//     Sigma -= Sigma v v^T Sigma / (v^T Sigma v + eps)
//
// This is the dense anchor the lightweight estimator in dbdd.hpp is tested
// against: one dense matvec and one full-row rank-1 downdate per hint on a
// num::Matrix, O(d^2) per hint. No pipeline stage runs it; every hint the
// attack routes is a coordinate hint and goes to lwe::DbddEstimator.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lwe/dbdd.hpp"
#include "numeric/matrix.hpp"
#include "numeric/stats.hpp"

namespace reveal::lwe {

/// Typed result of a hint integration (mirrors the HintPolicy routing
/// idea from core/hints.hpp: degrade gracefully instead of aborting a
/// hint sequence on a redundant hint).
enum class HintOutcome : std::uint8_t {
  kApplied,     ///< integrated; dim/log-volume updated
  kDegenerate,  ///< direction already (numerically) determined — rejected
  kExhausted,   ///< would eliminate the last live coordinate — rejected
};

/// Coordinate layout: [error_0 .. error_{m-1} | secret_0 .. secret_{n-1}].
/// Degenerate and exhausting hints are rejected with a typed HintOutcome
/// and counted in rejected_hints().
class DbddMatrixEstimatorReference {
 public:
  explicit DbddMatrixEstimatorReference(const DbddParams& params);

  [[nodiscard]] std::size_t dim() const noexcept { return sigma_.rows() - removed_ + 1; }
  [[nodiscard]] double logvol() const noexcept { return logvol_.value(); }
  [[nodiscard]] std::size_t rejected_hints() const noexcept { return rejected_; }

  HintOutcome integrate_perfect_hint(const std::vector<double>& v);
  HintOutcome integrate_approximate_hint(const std::vector<double>& v, double eps);
  HintOutcome integrate_perfect_error_hint(std::size_t i);
  std::vector<HintOutcome> integrate_perfect_coordinate_hints(
      const std::vector<std::size_t>& coords);

  [[nodiscard]] SecurityEstimate estimate() const;

 private:
  double quadratic_form(const std::vector<double>& v,
                        std::vector<double>& sigma_v) const;
  void rank_one_downdate(const std::vector<double>& sigma_v, double denom);

  std::size_t error_dim_;
  std::size_t removed_ = 0;
  std::size_t rejected_ = 0;
  num::NeumaierSum logvol_;
  num::Matrix sigma_;
};

}  // namespace reveal::lwe
