#include "sca/poi.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace reveal::sca {

ClassMeans class_means(std::span<const WindowView> windows, std::size_t min_length) {
  if (windows.empty()) throw std::invalid_argument("class_means: empty trace set");
  const std::size_t len = sca::min_length(windows);
  if (len == 0 || (min_length > 0 && len < min_length))
    throw std::invalid_argument("class_means: traces shorter than required window");

  std::map<std::int32_t, std::pair<std::vector<double>, std::size_t>> acc;
  for (const WindowView& t : windows) {
    if (t.label == Trace::kNoLabel)
      throw std::invalid_argument("class_means: unlabelled trace in profiling set");
    auto& [sum, count] = acc[t.label];
    if (sum.empty()) sum.assign(len, 0.0);
    for (std::size_t i = 0; i < len; ++i) sum[i] += t.samples[i];
    ++count;
  }
  ClassMeans means;
  for (auto& [label, pair] : acc) {
    auto& [sum, count] = pair;
    for (double& v : sum) v /= static_cast<double>(count);
    means.emplace(label, std::move(sum));
  }
  return means;
}

std::vector<double> sosd_curve(const ClassMeans& means) {
  if (means.size() < 2) throw std::invalid_argument("sosd_curve: need >= 2 classes");
  const std::size_t len = means.begin()->second.size();
  std::vector<double> sosd(len, 0.0);
  for (auto a = means.begin(); a != means.end(); ++a) {
    for (auto b = std::next(a); b != means.end(); ++b) {
      if (a->second.size() != len || b->second.size() != len)
        throw std::invalid_argument("sosd_curve: inconsistent mean lengths");
      for (std::size_t t = 0; t < len; ++t) {
        const double d = a->second[t] - b->second[t];
        sosd[t] += d * d;
      }
    }
  }
  return sosd;
}

std::vector<std::size_t> select_pois(const std::vector<double>& sosd, std::size_t count,
                                     std::size_t min_spacing) {
  if (min_spacing == 0) min_spacing = 1;
  std::vector<std::size_t> order(sosd.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&sosd](std::size_t a, std::size_t b) { return sosd[a] > sosd[b]; });

  std::vector<std::size_t> chosen;
  for (std::size_t idx : order) {
    if (chosen.size() >= count) break;
    bool ok = true;
    for (std::size_t c : chosen) {
      const std::size_t gap = idx > c ? idx - c : c - idx;
      if (gap < min_spacing) {
        ok = false;
        break;
      }
    }
    if (ok) chosen.push_back(idx);
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

std::vector<double> extract_pois(std::span<const double> samples,
                                 const std::vector<std::size_t>& pois) {
  std::vector<double> out;
  out.reserve(pois.size());
  for (std::size_t p : pois) {
    if (p >= samples.size()) throw std::invalid_argument("extract_pois: trace too short");
    out.push_back(samples[p]);
  }
  return out;
}

}  // namespace reveal::sca
