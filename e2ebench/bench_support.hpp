#pragma once
// Library-independent pieces of the end-to-end benchmark: the strict
// command-line parser, the latency-percentile rules, the in-memory span log
// with its self-time / coverage arithmetic and Chrome trace export, and the
// seed -> input generator. Everything here is a pure function of its
// arguments (the span log only stores what it is given), so it is unit
// tested without linking the attack libraries.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace e2ebench {

// ---------------------------------------------------------------------------
// Command line

/// The workloads the benchmark knows, in BENCHMARK.json order.
inline constexpr const char* kWorkloads[] = {"clean_campaign", "degraded_campaign",
                                             "files_recovery"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 20;
  bool trace = false;
  std::string trace_file;  ///< Chrome trace output (traced runs only)
  std::string work_dir;    ///< scratch directory for victim artifacts
};

/// Thrown for any command line the benchmark refuses.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Parses `--name value` and `--name=value` arguments (program name
/// excluded). Rejects unknown or repeated flags, missing values, numbers
/// with a sign, a fractional part, trailing garbage or overflow, a
/// `--seconds` outside 1..3600, a `--trace` other than 0 or 1, an unknown
/// workload and stray positional arguments. `--workload` is required.
[[nodiscard]] Options parse_args(const std::vector<std::string>& args);

/// Strict unsigned decimal: digits only, no sign, no whitespace, no
/// overflow. Throws UsageError naming `flag`.
[[nodiscard]] std::uint64_t parse_unsigned(const std::string& flag, const std::string& text);

[[nodiscard]] std::string usage();

// ---------------------------------------------------------------------------
// Latency percentiles

/// Linear-interpolated percentile (p in [0, 100]) of `samples`, like
/// numpy's default. Throws on an empty sample set.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// Samples strictly beyond the p-th percentile of n samples: floor(n * (1 - p/100)).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// The `tail` rule: the highest percentile of {99.9, 99, 95, 90, 75, 50}
/// with at least 10 samples beyond it when `n` samples are taken. Throws
/// ("run too short") if even the median has fewer than 10 beyond it.
[[nodiscard]] double tail_percentile(std::size_t n);

/// Per-item unslowed times: `per_pass[k][i]` is item i's time in pass k;
/// returns item i's minimum over the passes. Every pass must hold the same
/// items.
[[nodiscard]] std::vector<double> item_minimums(const std::vector<std::vector<double>>& per_pass);


// ---------------------------------------------------------------------------
// Spans

/// One closed span. `parent` is the index of the enclosing span in the log
/// (-1 for a root); `item` identifies the capture or victim the span
/// belongs to. An `estimated` span was not timed in place: its duration
/// comes from a replay of the same call and it is laid out inside its
/// parent (see e2ebench.cpp's capture replay).
struct SpanRecord {
  std::string name;
  std::int64_t parent = -1;
  std::uint64_t item = 0;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  bool estimated = false;

  [[nodiscard]] std::uint64_t duration_ns() const noexcept { return end_ns - begin_ns; }
};

/// Spans kept in memory for the whole run and written out at the end.
/// Spans nest through an explicit open-span stack, so a span's parent is
/// whatever span was open when it began.
class SpanLog {
 public:
  /// Opens a span; returns its index.
  std::size_t open(std::string name, std::uint64_t item, std::uint64_t begin_ns);
  /// Closes the innermost open span, which must be `index`.
  void close(std::size_t index, std::uint64_t end_ns);
  /// Adds an already-closed span under `record.parent`, or under the
  /// innermost open span when that is -1.
  std::size_t add(SpanRecord record);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::int64_t innermost() const noexcept {
    return stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> stack_;
};

/// Self time of every span: its duration minus the durations of its direct
/// children (children lie inside their parent's interval).
[[nodiscard]] std::vector<std::uint64_t> self_times_ns(const std::vector<SpanRecord>& spans);

/// True for spans that belong to a program layer (riscv, power, sca, core,
/// lwe, lattice, seal); the benchmark's own grouping spans are "bench.*".
[[nodiscard]] bool is_layer_span(const std::string& name);

/// Summed (inclusive) duration per layer span name, over the spans whose
/// root ancestor is one of `roots`.
[[nodiscard]] std::map<std::string, std::uint64_t> layer_totals_ns(
    const std::vector<SpanRecord>& spans, const std::vector<std::size_t>& roots);

/// trace.coverage_ratio: the summed self time of every layer span whose
/// root ancestor is one of `roots`, divided by `wall_ns`.
[[nodiscard]] double coverage_ratio(const std::vector<SpanRecord>& spans,
                                    const std::vector<std::size_t>& roots,
                                    std::uint64_t wall_ns);

/// `s` as a quoted JSON string: quotes and backslashes escaped, control
/// characters as \u00XX.
[[nodiscard]] std::string json_string(const std::string& s);

/// Writes the spans as Chrome trace-event JSON ("X" complete events on one
/// thread, nested by time). Each event's args carry its span id, its parent
/// id and its item id, so the tree survives tools that only nest by time.
void write_chrome_trace(std::ostream& out, const std::vector<SpanRecord>& spans);

// ---------------------------------------------------------------------------
// Generated inputs

/// splitmix64 finalizer: the benchmark's only source of derived seeds.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept;

/// Seed of input stream `stream`, element `index` for workload seed `seed`.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                                        std::uint64_t index) noexcept;

/// One candidate files_recovery victim: key/encryption randomness, the
/// capture seed of its firmware run and its 64-byte message.
struct VictimSpec {
  std::uint64_t key_seed = 0;
  std::uint64_t capture_seed = 0;
  std::vector<std::uint64_t> message;

  friend bool operator==(const VictimSpec&, const VictimSpec&) = default;
};

/// Every input of one workload run, generated from the workload seed.
struct WorkloadInputs {
  std::uint64_t profiling_seed_base = 0;   ///< collect_windows(seed_base)
  std::vector<std::uint64_t> attack_seeds; ///< campaign workloads: capture seeds
  std::uint64_t fault_seed = 0;            ///< FaultSpec::seed
  std::uint64_t warmup_seed = 0;           ///< set-up warm-up capture

  friend bool operator==(const WorkloadInputs&, const WorkloadInputs&) = default;
};

[[nodiscard]] WorkloadInputs make_inputs(std::uint64_t seed, std::size_t attack_captures);

/// Candidate victim `index` of the files_recovery stream; `message_length`
/// bytes of printable ASCII.
[[nodiscard]] VictimSpec make_victim(std::uint64_t seed, std::uint64_t index,
                                     std::size_t message_length);

}  // namespace e2ebench
