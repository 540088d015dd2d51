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

void ExactSum::add(double x) noexcept {
  if (x == 0.0 || !std::isfinite(x)) return;
  int exp = 0;
  const double m = std::frexp(x, &exp);  // x = m * 2^exp, |m| in [0.5, 1)
  // ldexp is exact here: m carries at most 53 significant bits, so m * 2^53
  // is an integer below 2^53.
  const auto mi = static_cast<std::int64_t>(std::ldexp(m, 53));
  const std::uint64_t mag = static_cast<std::uint64_t>(mi < 0 ? -mi : mi);
  const std::int64_t sign = mi < 0 ? -1 : 1;
  const int shift = exp - 53 - kBaseExp;  // >= 0 for every finite double
  const std::size_t limb = static_cast<std::size_t>(shift) >> 5;
  const int off = shift & 31;
  // mag * 2^off spans at most 85 bits: deposit it as three 32-bit chunks.
  const std::uint64_t lo_part = (mag & 0xffffffffull) << off;  // < 2^63
  const std::uint64_t hi_part = (mag >> 32) << off;            // < 2^52, weight 2^32
  limbs_[limb] += sign * static_cast<std::int64_t>(lo_part & 0xffffffffull);
  limbs_[limb + 1] +=
      sign * static_cast<std::int64_t>((lo_part >> 32) + (hi_part & 0xffffffffull));
  limbs_[limb + 2] += sign * static_cast<std::int64_t>(hi_part >> 32);
  if (++pending_ >= kNormalizeEvery) normalize();
}

void ExactSum::normalize() noexcept {
  // Canonical form: lower limbs reduced into [0, 2^32), the top limb keeps
  // the sign. Unique per exact value, so normalized limb comparison is
  // exact-sum comparison.
  std::int64_t carry = 0;
  for (std::size_t i = 0; i + 1 < kLimbs; ++i) {
    const std::int64_t v = limbs_[i] + carry;
    limbs_[i] = v & 0xffffffffll;  // non-negative residue mod 2^32
    carry = v >> 32;               // arithmetic shift: floor division
  }
  limbs_[kLimbs - 1] += carry;
  pending_ = 0;
}

ExactSum ExactSum::normalized() const noexcept {
  ExactSum c = *this;
  c.normalize();
  return c;
}

void ExactSum::merge(const ExactSum& other) noexcept {
  // Each side's limbs are bounded by its pending budget (< 2^60), so the
  // raw limb add cannot overflow; fold the budgets and renormalize early.
  for (std::size_t i = 0; i < kLimbs; ++i) limbs_[i] += other.limbs_[i];
  const std::uint64_t pending =
      static_cast<std::uint64_t>(pending_) + other.pending_;
  if (pending >= kNormalizeEvery) {
    normalize();
  } else {
    pending_ = static_cast<std::uint32_t>(pending);
  }
}

double ExactSum::value() const noexcept {
  const ExactSum c = normalized();
  // Fixed-order (most-significant first) rendering of the canonical limbs:
  // deterministic because the limbs are a pure function of the exact sum.
  double out = 0.0;
  for (std::size_t i = kLimbs; i-- > 0;) {
    if (c.limbs_[i] != 0) {
      out += std::ldexp(static_cast<double>(c.limbs_[i]),
                        static_cast<int>(i) * 32 + kBaseExp);
    }
  }
  return out;
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
  sum_.add(x);
}

bool LatencyHistogram::compatible(const LatencyHistogram& other) const noexcept {
  return lo_ == other.lo_ && hi_ == other.hi_ && counts_.size() == other.counts_.size();
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.counts_.empty()) return;
  if (counts_.empty()) {
    *this = other;
    return;
  }
  if (!compatible(other))
    throw std::invalid_argument("LatencyHistogram::merge: incompatible bucket layout");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  sum_.merge(other.sum_);
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
  } else if (!e.hist.compatible(LatencyHistogram(lo, hi, bins))) {
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

void Registry::merge(const Registry& other) {
  // Iterate the other registry's index (name order) so that any metrics
  // newly created here land in a registration order that depends only on
  // the merged *names*, not on the other side's registration history.
  for (const auto& [name, other_id] : other.index_) {
    const Entry& src = other.entries_[other_id];
    switch (src.kind) {
      case MetricKind::kCounter: {
        const Id id = counter(name);
        entries_[id].counter += src.counter;
        break;
      }
      case MetricKind::kGauge: {
        const Id id = gauge(name);
        if (src.gauge_set) set_max(id, src.gauge);
        break;
      }
      case MetricKind::kHistogram: {
        const Id id = find_or_create(name, MetricKind::kHistogram);
        entries_[id].hist.merge(src.hist);
        break;
      }
    }
  }
}

}  // namespace reveal::obs
