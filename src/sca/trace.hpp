#pragma once
// Power-trace containers and binary I/O.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace reveal::sca {

/// One power measurement: samples plus an optional integer label
/// (the profiled secret value; kNoLabel for attack traces).
struct Trace {
  static constexpr std::int32_t kNoLabel = INT32_MIN;

  std::vector<double> samples;
  std::int32_t label = kNoLabel;

  [[nodiscard]] std::size_t size() const noexcept { return samples.size(); }
};

/// A labelled window that does not own its samples: profiling reads window
/// prefixes where the capture left them instead of copying them. The viewed
/// storage must outlive the view.
struct WindowView {
  std::span<const double> samples;
  std::int32_t label = Trace::kNoLabel;
};

/// Minimum sample count across views (0 if empty).
[[nodiscard]] std::size_t min_length(std::span<const WindowView> windows) noexcept;

/// A set of traces (not necessarily equal length).
class TraceSet {
 public:
  TraceSet() = default;

  void add(Trace trace) { traces_.push_back(std::move(trace)); }
  [[nodiscard]] std::size_t size() const noexcept { return traces_.size(); }
  [[nodiscard]] bool empty() const noexcept { return traces_.empty(); }
  [[nodiscard]] const Trace& operator[](std::size_t i) const noexcept { return traces_[i]; }
  [[nodiscard]] Trace& operator[](std::size_t i) noexcept { return traces_[i]; }
  [[nodiscard]] auto begin() const noexcept { return traces_.begin(); }
  [[nodiscard]] auto end() const noexcept { return traces_.end(); }
  void clear() noexcept { traces_.clear(); }

  /// Minimum sample count across traces (0 if empty).
  [[nodiscard]] std::size_t min_length() const noexcept;

  /// Binary round-trip (throws std::runtime_error on I/O or format errors).
  void save(const std::string& path) const;
  [[nodiscard]] static TraceSet load(const std::string& path);

 private:
  std::vector<Trace> traces_;
};

/// Z-normalizes samples in place (zero mean, unit variance; no-op for
/// constant traces).
void normalize(Trace& trace) noexcept;

/// Mean trace of all traces in `set` truncated to the common length;
/// throws std::invalid_argument if the set is empty.
[[nodiscard]] std::vector<double> mean_trace(const TraceSet& set);

}  // namespace reveal::sca
