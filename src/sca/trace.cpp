#include "sca/trace.hpp"

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace reveal::sca {

std::size_t TraceSet::min_length() const noexcept {
  if (traces_.empty()) return 0;
  std::size_t m = std::numeric_limits<std::size_t>::max();
  for (const Trace& t : traces_) m = std::min(m, t.size());
  return m;
}

std::size_t min_length(std::span<const WindowView> windows) noexcept {
  if (windows.empty()) return 0;
  std::size_t m = std::numeric_limits<std::size_t>::max();
  for (const WindowView& w : windows) m = std::min(m, w.samples.size());
  return m;
}

namespace {
constexpr char kMagic[4] = {'R', 'V', 'L', 'T'};

// Plausibility caps for on-disk counts, mirroring the kMaxElements guard in
// seal/serialization.cpp: a corrupt or hostile file must produce a clean
// parse error, never an unbounded allocation. Both caps are far above any
// trace set this toolkit writes (captures run ~64 windows of ~34k samples).
constexpr std::uint64_t kMaxTraceSamples = std::uint64_t{1} << 28;  // 2 GiB of doubles
// Every serialized trace costs at least its record header (label + count),
// so a declared trace count beyond remaining_bytes / kMinTraceRecordBytes
// cannot possibly be backed by file data.
constexpr std::uint64_t kMinTraceRecordBytes =
    sizeof(std::int32_t) + sizeof(std::uint64_t);
}

void TraceSet::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("TraceSet::save: cannot open " + path);
  out.write(kMagic, 4);
  const std::uint64_t count = traces_.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const Trace& t : traces_) {
    out.write(reinterpret_cast<const char*>(&t.label), sizeof(t.label));
    const std::uint64_t n = t.samples.size();
    out.write(reinterpret_cast<const char*>(&n), sizeof(n));
    out.write(reinterpret_cast<const char*>(t.samples.data()),
              static_cast<std::streamsize>(n * sizeof(double)));
  }
  if (!out) throw std::runtime_error("TraceSet::save: write failed for " + path);
}

TraceSet TraceSet::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("TraceSet::load: cannot open " + path);
  in.seekg(0, std::ios::end);
  const auto end_pos = in.tellg();
  if (end_pos < 0) throw std::runtime_error("TraceSet::load: cannot stat " + path);
  const auto file_bytes = static_cast<std::uint64_t>(end_pos);
  in.seekg(0, std::ios::beg);
  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kMagic, 4) != 0)
    throw std::runtime_error("TraceSet::load: bad magic in " + path);
  std::uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in) throw std::runtime_error("TraceSet::load: truncated file " + path);
  // Declared counts are validated against the bytes actually present before
  // any allocation sized by them (division avoids the overflow a
  // `count * record_bytes` comparison would reintroduce).
  std::uint64_t remaining = file_bytes - (sizeof(kMagic) + sizeof(count));
  if (count > remaining / kMinTraceRecordBytes)
    throw std::runtime_error("TraceSet::load: truncated file " + path);
  TraceSet set;
  for (std::uint64_t i = 0; i < count; ++i) {
    Trace t;
    in.read(reinterpret_cast<char*>(&t.label), sizeof(t.label));
    std::uint64_t n = 0;
    in.read(reinterpret_cast<char*>(&n), sizeof(n));
    if (!in) throw std::runtime_error("TraceSet::load: truncated file " + path);
    remaining -= kMinTraceRecordBytes;
    if (n > kMaxTraceSamples || n > remaining / sizeof(double))
      throw std::runtime_error("TraceSet::load: truncated file " + path);
    t.samples.resize(n);
    // n <= kMaxTraceSamples (2^28), so n * sizeof(double) <= 2^31 fits the
    // signed streamsize without wrapping.
    in.read(reinterpret_cast<char*>(t.samples.data()),
            static_cast<std::streamsize>(n * sizeof(double)));
    if (!in) throw std::runtime_error("TraceSet::load: truncated file " + path);
    remaining -= n * sizeof(double);
    set.add(std::move(t));
  }
  return set;
}

void normalize(Trace& trace) noexcept {
  if (trace.samples.empty()) return;
  double mean = 0.0;
  for (double v : trace.samples) mean += v;
  mean /= static_cast<double>(trace.samples.size());
  double var = 0.0;
  for (double v : trace.samples) var += (v - mean) * (v - mean);
  var /= static_cast<double>(trace.samples.size());
  const double sd = std::sqrt(var);
  if (sd == 0.0) return;
  for (double& v : trace.samples) v = (v - mean) / sd;
}

std::vector<double> mean_trace(const TraceSet& set) {
  if (set.empty()) throw std::invalid_argument("mean_trace: empty trace set");
  const std::size_t len = set.min_length();
  std::vector<double> mean(len, 0.0);
  for (const Trace& t : set) {
    for (std::size_t i = 0; i < len; ++i) mean[i] += t.samples[i];
  }
  for (double& v : mean) v /= static_cast<double>(set.size());
  return mean;
}

}  // namespace reveal::sca
