#pragma once
// Point-of-interest selection for template attacks.
//
// Implements the sum-of-squared-differences (SOSD) criterion the paper uses
// (§III-D, ref [30]): sosd(t) = sum over class pairs of
// (mean_a(t) - mean_b(t))^2. The top-k samples (with a minimum spacing so a
// single wide peak does not consume every slot) become the template POIs.

#include <cstddef>
#include <map>
#include <span>
#include <vector>

#include "sca/trace.hpp"

namespace reveal::sca {

/// Per-class mean traces over a fixed window length.
using ClassMeans = std::map<std::int32_t, std::vector<double>>;

/// Computes per-class means of the labelled windows, truncated to the
/// shortest window; throws std::invalid_argument on empty input or windows
/// shorter than `min_length` (pass 0 to accept any).
[[nodiscard]] ClassMeans class_means(std::span<const WindowView> windows,
                                     std::size_t min_length = 0);

/// SOSD curve across all sample points of the class means.
[[nodiscard]] std::vector<double> sosd_curve(const ClassMeans& means);

/// Selects up to `count` POIs: highest-SOSD samples at least `min_spacing`
/// apart, returned in increasing index order.
[[nodiscard]] std::vector<std::size_t> select_pois(const std::vector<double>& sosd,
                                                   std::size_t count,
                                                   std::size_t min_spacing = 1);

/// Extracts the POI samples of one trace (throws if the trace is too short).
[[nodiscard]] std::vector<double> extract_pois(std::span<const double> samples,
                                               const std::vector<std::size_t>& pois);

}  // namespace reveal::sca
