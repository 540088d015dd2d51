#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace reveal::obs {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

LatencyHistogram::LatencyHistogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (!(hi > lo) || bins == 0)
    throw std::invalid_argument("LatencyHistogram: empty range or zero bins");
}

void LatencyHistogram::add(double x) noexcept {
  if (counts_.empty()) return;
  const double scaled =
      (x - lo_) / (hi_ - lo_) * static_cast<double>(counts_.size());
  std::size_t bin = 0;
  if (std::isnan(scaled)) {
    bin = 0;  // a NaN observation still counts; pin it to the first bucket
  } else if (scaled >= static_cast<double>(counts_.size())) {
    bin = counts_.size() - 1;
  } else if (scaled > 0.0) {
    bin = static_cast<std::size_t>(scaled);
    if (bin >= counts_.size()) bin = counts_.size() - 1;
  }
  ++counts_[bin];
  ++total_;
  if (std::isfinite(x)) sum_.add(x);
}

Registry::Id Registry::find_or_create(std::string_view name, MetricKind kind) {
  if (const auto it = index_.find(name); it != index_.end()) {
    const Entry& e = entries_[it->second];
    if (e.kind != kind)
      throw std::logic_error("obs::Registry: metric '" + e.name + "' registered as " +
                             to_string(e.kind) + ", requested as " + to_string(kind));
    return it->second;
  }
  Entry e;
  e.name = std::string(name);
  e.kind = kind;
  entries_.push_back(std::move(e));
  const Id id = entries_.size() - 1;
  index_.emplace(entries_.back().name, id);
  return id;
}

Registry::Id Registry::counter(std::string_view name) {
  return find_or_create(name, MetricKind::kCounter);
}

Registry::Id Registry::gauge(std::string_view name) {
  return find_or_create(name, MetricKind::kGauge);
}

Registry::Id Registry::histogram(std::string_view name, double lo, double hi,
                                 std::size_t bins) {
  const Id id = find_or_create(name, MetricKind::kHistogram);
  Entry& e = entries_[id];
  if (e.hist.bin_count() == 0) {
    e.hist = LatencyHistogram(lo, hi, bins);
  } else if (e.hist.lo() != lo || e.hist.hi() != hi || e.hist.bin_count() != bins) {
    throw std::logic_error("obs::Registry: histogram '" + e.name +
                           "' re-registered with a different bucket layout");
  }
  return id;
}

void Registry::add(Id id, std::uint64_t delta) { entries_.at(id).counter += delta; }

void Registry::set_max(Id id, double value) {
  Entry& e = entries_.at(id);
  if (!e.gauge_set || value > e.gauge) e.gauge = value;
  e.gauge_set = true;
}

void Registry::observe(Id id, double value) { entries_.at(id).hist.add(value); }

bool Registry::contains(std::string_view name) const {
  return index_.find(name) != index_.end();
}

MetricKind Registry::kind(std::string_view name) const {
  const auto it = index_.find(name);
  if (it == index_.end())
    throw std::out_of_range("obs::Registry: unknown metric '" + std::string(name) + "'");
  return entries_[it->second].kind;
}

const Registry::Entry& Registry::at(std::string_view name, MetricKind kind) const {
  const auto it = index_.find(name);
  if (it == index_.end())
    throw std::out_of_range("obs::Registry: unknown metric '" + std::string(name) + "'");
  const Entry& e = entries_[it->second];
  if (e.kind != kind)
    throw std::logic_error("obs::Registry: metric '" + e.name + "' is a " +
                           to_string(e.kind) + ", not a " + to_string(kind));
  return e;
}

std::uint64_t Registry::counter_value(std::string_view name) const {
  return at(name, MetricKind::kCounter).counter;
}

double Registry::gauge_value(std::string_view name) const {
  return at(name, MetricKind::kGauge).gauge;
}

const LatencyHistogram& Registry::histogram_values(std::string_view name) const {
  return at(name, MetricKind::kHistogram).hist;
}

std::vector<std::string> Registry::names(MetricKind kind) const {
  std::vector<std::string> out;
  // index_ iterates in name order, so the report order is deterministic
  // regardless of the registration order.
  for (const auto& [name, id] : index_) {
    if (entries_[id].kind == kind) out.push_back(name);
  }
  return out;
}

}  // namespace reveal::obs
