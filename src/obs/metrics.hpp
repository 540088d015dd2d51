#pragma once
// Campaign metrics registry.
//
// A campaign's diagnostics sink holds one Registry, and the campaign driver
// fills it in one pass over the finished captures, in capture order, on the
// calling thread. Every value is therefore the same for every worker count:
// counters and histogram bucket counts are integers, gauges keep their
// maximum, and a histogram's value sum adds up in capture order through a
// compensated (Neumaier) accumulator.
//
// Metrics are identified by name; an Id is a cheap handle resolved once so
// loops do no string lookups.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "numeric/stats.hpp"

namespace reveal::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Human-readable name of a metric kind.
[[nodiscard]] const char* to_string(MetricKind kind);

/// Fixed-bucket latency/quality histogram with integer bucket counts and a
/// value sum. Out-of-range observations clamp into the first/last bucket,
/// so every observation is counted.
class LatencyHistogram {
 public:
  LatencyHistogram() = default;
  LatencyHistogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;

  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t count(std::size_t bin) const { return counts_.at(bin); }
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept {
    return counts_;
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// Sum of every observed finite value in observation order (clamping
  /// applies to the bucket choice only, not to the sum; NaN/inf
  /// observations are counted in the buckets but excluded here).
  [[nodiscard]] double sum() const noexcept { return sum_.value(); }

 private:
  double lo_ = 0.0;
  double hi_ = 1.0;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  num::NeumaierSum sum_;
};

/// Typed metric store. Register returns a stable Id for the hot path;
/// value updates through an Id are branch-free array accesses.
class Registry {
 public:
  using Id = std::size_t;

  /// Get-or-register. Re-registering an existing name with the same kind
  /// returns the existing Id; a kind conflict throws std::logic_error.
  Id counter(std::string_view name);
  Id gauge(std::string_view name);
  Id histogram(std::string_view name, double lo, double hi, std::size_t bins);

  void add(Id id, std::uint64_t delta = 1);
  /// Gauge update with max semantics: the stored value only grows.
  void set_max(Id id, double value);
  void observe(Id id, double value);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool contains(std::string_view name) const;
  [[nodiscard]] MetricKind kind(std::string_view name) const;

  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  [[nodiscard]] double gauge_value(std::string_view name) const;
  [[nodiscard]] const LatencyHistogram& histogram_values(std::string_view name) const;

  /// Names of all registered metrics of `kind`, sorted (deterministic
  /// report order regardless of registration order).
  [[nodiscard]] std::vector<std::string> names(MetricKind kind) const;

 private:
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    bool gauge_set = false;  ///< distinguishes "never set" from max==0
    LatencyHistogram hist;
  };

  [[nodiscard]] Id find_or_create(std::string_view name, MetricKind kind);
  [[nodiscard]] const Entry& at(std::string_view name, MetricKind kind) const;

  std::vector<Entry> entries_;
  std::map<std::string, Id, std::less<>> index_;
};

}  // namespace reveal::obs
