#pragma once
// Campaign metrics registry.
//
// The observability layer follows the same determinism contract as every
// other campaign accumulator (HintTally, sca::ConfusionMatrix): each worker
// owns a private Registry, fills it while processing its captures, and the
// campaign merges the per-worker partials in worker-index order on the
// calling thread. Counters and histogram bucket counts are integers, so the
// merged totals are *worker-count invariant* — the same campaign yields
// identical values for any pool size. Gauges carry max-merge semantics (the
// only order-independent float reduction that needs no compensation), and
// histogram value sums accumulate exactly through ExactSum, so they share
// the invariance.
//
// Metrics are identified by name; an Id is a cheap handle resolved once
// (per worker) so hot loops do no string lookups. merge() matches entries
// by *name*, never by Id, so two registries that registered the same
// metrics in different orders still merge correctly.

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace reveal::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Human-readable name of a metric kind.
[[nodiscard]] const char* to_string(MetricKind kind);

/// Order-invariant exact accumulator for doubles.
///
/// A plain `sum += x` reduction is not associative: per-worker partial
/// sums regroup with the pool size and the merged total drifts in the last
/// ulps, breaking the worker-count invariance the rest of the registry
/// guarantees. The campaign summary dodges the same trap by recounting
/// hints in capture order, but a histogram cannot recount (the raw
/// observations are gone), so the sum lives in a fixed-point long
/// accumulator instead: each double is split exactly into 32-bit limbs of
/// a 2^-1152-based integer, limb additions are exact integer adds (which
/// commute), and merge() is a limb-wise add. The rendered double is a
/// function of the *exact* sum only — identical for every accumulation
/// order, partition, and worker count. Non-finite observations are
/// excluded (a single NaN would otherwise poison the total).
class ExactSum {
 public:
  void add(double x) noexcept;
  /// Limb-wise integer add; exact and commutative.
  void merge(const ExactSum& other) noexcept;
  /// The exact sum rendered to double (deterministic: depends only on the
  /// set of added values, never on their order or grouping).
  [[nodiscard]] double value() const noexcept;

  [[nodiscard]] friend bool operator==(const ExactSum& a, const ExactSum& b) noexcept {
    return a.normalized().limbs_ == b.normalized().limbs_;
  }

  /// Serializes the *normalized* limb vector: two accumulators holding the
  /// same exact sum (by any add/merge history) save identical bytes, which
  /// is what makes a resumed checkpoint byte-comparable to an unbroken run.
  void save(std::ostream& out) const;
  [[nodiscard]] static ExactSum load(std::istream& in);

 private:
  // 70 x 32-bit limbs span weights 2^-1152 .. 2^1088: every finite double
  // (denormal lsb 2^-1126 .. DBL_MAX msb 2^1023) plus carry headroom.
  static constexpr int kBaseExp = -1152;
  static constexpr std::size_t kLimbs = 70;
  static constexpr std::uint32_t kNormalizeEvery = 1u << 27;

  void normalize() noexcept;
  [[nodiscard]] ExactSum normalized() const noexcept;

  std::array<std::int64_t, kLimbs> limbs_{};
  std::uint32_t pending_ = 0;  ///< adds since last normalize (overflow guard)
};

/// Fixed-bucket latency/quality histogram with integer bucket counts, exact
/// merging and a value sum. Out-of-range observations clamp into the
/// first/last bucket, so every observation is counted.
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
  /// Sum of every observed finite value (clamping applies to the bucket
  /// choice only, not to the sum; NaN/inf observations are counted in the
  /// buckets but excluded here). Worker-count invariant — see ExactSum.
  [[nodiscard]] double sum() const noexcept { return sum_.value(); }

  /// True when `other` has the same [lo, hi) range and bucket count.
  [[nodiscard]] bool compatible(const LatencyHistogram& other) const noexcept;

  /// Adds `other`'s bucket counts and sum. Throws std::invalid_argument on
  /// incompatible bucket layouts.
  void merge(const LatencyHistogram& other);

  /// Binary snapshot (layout, counts, exact sum); load() bounds-checks the
  /// bucket count and cross-checks total() against the bucket counts.
  void save(std::ostream& out) const;
  [[nodiscard]] static LatencyHistogram load(std::istream& in);

  friend bool operator==(const LatencyHistogram&, const LatencyHistogram&) = default;

 private:
  double lo_ = 0.0;
  double hi_ = 1.0;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  ExactSum sum_;
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

  /// Adds `other`'s metrics into this registry, matching by name
  /// (registering names this registry has not seen). Counter values and
  /// histogram buckets add exactly; gauges take the max. A name registered
  /// with different kinds (or incompatible histogram layouts) throws.
  void merge(const Registry& other);

  /// Binary snapshot of every entry, written in sorted-name order so the
  /// bytes are independent of registration order (merge() matches by name,
  /// so a reload round-trips exactly). Reads are bounds-checked.
  void save(std::ostream& out) const;
  [[nodiscard]] static Registry load(std::istream& in);

  /// Same metrics with same values (by name; Ids may differ).
  [[nodiscard]] bool same_metrics(const Registry& other) const;

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
