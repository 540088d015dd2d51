#include "bench_support.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <set>
#include <sstream>

namespace e2ebench {

// ---------------------------------------------------------------------------
// Command line

std::string usage() {
  return "usage: e2ebench --workload <clean_campaign|degraded_campaign|files_recovery>\n"
         "                [--seed N] [--seconds 1..3600] [--trace 0|1]\n"
         "                [--trace-file PATH] [--work-dir PATH]\n";
}

std::uint64_t parse_unsigned(const std::string& flag, const std::string& text) {
  if (text.empty()) throw UsageError(flag + ": empty value");
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9')
      throw UsageError(flag + ": '" + text + "' is not an unsigned decimal integer");
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
      throw UsageError(flag + ": '" + text + "' overflows 64 bits");
    value = value * 10 + digit;
  }
  return value;
}

Options parse_args(const std::vector<std::string>& args) {
  Options opt;
  std::set<std::string> seen;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) throw UsageError("unexpected argument '" + arg + "'");
    std::string name = arg;
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      if (i + 1 >= args.size()) throw UsageError(name + ": missing value");
      value = args[++i];
    }
    if (!seen.insert(name).second) throw UsageError(name + ": given twice");
    if (name == "--workload") {
      if (std::find(std::begin(kWorkloads), std::end(kWorkloads), value) ==
          std::end(kWorkloads))
        throw UsageError("--workload: unknown workload '" + value + "'");
      opt.workload = value;
    } else if (name == "--seed") {
      opt.seed = parse_unsigned(name, value);
    } else if (name == "--seconds") {
      opt.seconds = parse_unsigned(name, value);
      if (opt.seconds < 1 || opt.seconds > 3600)
        throw UsageError("--seconds: must be in 1..3600, got " + value);
    } else if (name == "--trace") {
      if (value != "0" && value != "1") throw UsageError("--trace: must be 0 or 1");
      opt.trace = value == "1";
    } else if (name == "--trace-file" || name == "--work-dir") {
      if (value.empty() || value.rfind("--", 0) == 0)
        throw UsageError(name + ": missing path");
      (name == "--trace-file" ? opt.trace_file : opt.work_dir) = value;
    } else {
      throw UsageError("unknown flag '" + name + "'");
    }
  }
  if (opt.workload.empty()) throw UsageError("--workload is required");
  return opt;
}

// ---------------------------------------------------------------------------
// Latency percentiles

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(p >= 0.0 && p <= 100.0)) throw std::invalid_argument("percentile outside [0, 100]");
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

std::vector<double> item_minimums(const std::vector<std::vector<double>>& per_pass) {
  if (per_pass.empty()) throw std::invalid_argument("item_minimums of no passes");
  std::vector<double> out = per_pass.front();
  for (const std::vector<double>& pass : per_pass) {
    if (pass.size() != out.size())
      throw std::invalid_argument("item_minimums: passes hold different item counts");
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::min(out[i], pass[i]);
  }
  return out;
}

std::size_t samples_beyond(std::size_t n, double p) {
  // Rounded before flooring so that e.g. 1000 * (1 - 0.99) counts as 10.
  const double beyond = static_cast<double>(n) * (1.0 - p / 100.0);
  return static_cast<std::size_t>(std::floor(beyond + 1e-9));
}

namespace {
constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
constexpr std::size_t kMinBeyond = 10;
}  // namespace

double tail_percentile(std::size_t n) {
  for (const double p : kTailLadder) {
    if (samples_beyond(n, p) >= kMinBeyond) return p;
  }
  throw std::runtime_error("run too short: " + std::to_string(n) +
                           " samples leave fewer than 10 beyond the median");
}

// ---------------------------------------------------------------------------
// Spans

std::size_t SpanLog::open(std::string name, std::uint64_t item, std::uint64_t begin_ns) {
  SpanRecord r;
  r.name = std::move(name);
  r.parent = innermost();
  r.item = item;
  r.begin_ns = begin_ns;
  r.end_ns = begin_ns;
  spans_.push_back(std::move(r));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t index, std::uint64_t end_ns) {
  if (stack_.empty() || stack_.back() != index)
    throw std::logic_error("SpanLog: spans must close innermost first");
  stack_.pop_back();
  spans_[index].end_ns = end_ns;
}

std::size_t SpanLog::add(SpanRecord record) {
  if (record.parent < 0) record.parent = innermost();
  spans_.push_back(std::move(record));
  return spans_.size() - 1;
}

std::vector<std::uint64_t> self_times_ns(const std::vector<SpanRecord>& spans) {
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].duration_ns();
  for (const SpanRecord& s : spans) {
    if (s.parent < 0) continue;
    auto& parent = self[static_cast<std::size_t>(s.parent)];
    parent -= std::min(parent, s.duration_ns());
  }
  return self;
}

bool is_layer_span(const std::string& name) {
  static const char* const kLayers[] = {"riscv.", "power.", "sca.",    "core.",
                                        "lwe.",   "lattice.", "seal."};
  for (const char* prefix : kLayers) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

namespace {

/// True for each layer span whose root ancestor is one of `roots`. Parents
/// precede children in the log, so one forward pass resolves every root.
std::vector<bool> layer_spans_under(const std::vector<SpanRecord>& spans,
                                    const std::vector<std::size_t>& roots) {
  const std::set<std::size_t> root_set(roots.begin(), roots.end());
  std::vector<std::size_t> root_of(spans.size());
  std::vector<bool> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t parent = spans[i].parent;
    root_of[i] = parent < 0 ? i : root_of[static_cast<std::size_t>(parent)];
    out[i] = is_layer_span(spans[i].name) && root_set.count(root_of[i]) != 0;
  }
  return out;
}

}  // namespace

std::map<std::string, std::uint64_t> layer_totals_ns(const std::vector<SpanRecord>& spans,
                                                     const std::vector<std::size_t>& roots) {
  const std::vector<bool> counted = layer_spans_under(spans, roots);
  std::map<std::string, std::uint64_t> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (counted[i]) totals[spans[i].name] += spans[i].duration_ns();
  }
  return totals;
}

double coverage_ratio(const std::vector<SpanRecord>& spans,
                      const std::vector<std::size_t>& roots, std::uint64_t wall_ns) {
  if (wall_ns == 0) throw std::invalid_argument("coverage_ratio: zero wall time");
  const std::vector<bool> counted = layer_spans_under(spans, roots);
  const std::vector<std::uint64_t> self = self_times_ns(spans);
  std::uint64_t covered = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (counted[i]) covered += self[i];
  }
  return static_cast<double>(covered) / static_cast<double>(wall_ns);
}

std::string json_string(const std::string& s) {
  std::ostringstream out;
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << "\\u" << std::hex << std::setw(4) << std::setfill('0')
          << static_cast<int>(static_cast<unsigned char>(c)) << std::dec;
    } else {
      out << c;
    }
  }
  out << '"';
  return out.str();
}

void write_chrome_trace(std::ostream& out, const std::vector<SpanRecord>& spans) {
  const std::uint64_t origin = spans.empty() ? 0 : std::min_element(
      spans.begin(), spans.end(), [](const SpanRecord& a, const SpanRecord& b) {
        return a.begin_ns < b.begin_ns;
      })->begin_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << std::fixed << std::setprecision(3);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const std::string cat = s.name.substr(0, s.name.find('.'));
    out << "{\"name\":" << json_string(s.name) << ",\"cat\":" << json_string(cat)
        << ",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << static_cast<double>(s.begin_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.duration_ns()) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"item\":" << s.item << ",\"estimated\":" << (s.estimated ? "true" : "false")
        << "}}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

// ---------------------------------------------------------------------------
// Generated inputs

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) noexcept {
  return mix64(mix64(mix64(seed) ^ stream) ^ index);
}

namespace {
enum Stream : std::uint64_t {
  kProfiling = 1,
  kAttack = 2,
  kFaults = 3,
  kWarmup = 4,
  kVictimKey = 5,
  kVictimCapture = 6,
  kVictimMessage = 7,
};
}  // namespace

WorkloadInputs make_inputs(std::uint64_t seed, std::size_t attack_captures) {
  WorkloadInputs in;
  // Profiling seeds are seed_base + r; keep the base in the low 48 bits so
  // the profiling run never wraps into another stream.
  in.profiling_seed_base = derive_seed(seed, kProfiling, 0) >> 16;
  in.attack_seeds.resize(attack_captures);
  for (std::size_t i = 0; i < attack_captures; ++i)
    in.attack_seeds[i] = derive_seed(seed, kAttack, i);
  in.fault_seed = derive_seed(seed, kFaults, 0);
  in.warmup_seed = derive_seed(seed, kWarmup, 0);
  return in;
}

VictimSpec make_victim(std::uint64_t seed, std::uint64_t index, std::size_t message_length) {
  VictimSpec v;
  v.key_seed = derive_seed(seed, kVictimKey, index);
  v.capture_seed = derive_seed(seed, kVictimCapture, index);
  v.message.resize(message_length);
  for (std::size_t i = 0; i < message_length; ++i) {
    // Printable ASCII, below the plaintext modulus (256).
    v.message[i] = 0x20 + derive_seed(seed, kVictimMessage, index * message_length + i) % 95;
  }
  return v;
}

}  // namespace e2ebench
