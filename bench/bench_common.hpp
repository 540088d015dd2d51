#pragma once
// Shared plumbing for the reproduction harnesses: default campaign
// configurations, the attack phase on the campaign engine, the strict
// command-line parser every bench uses, and paper-vs-measured row printing.
// Every bench prints the rows of one of the paper's tables or figures next
// to the values measured on the simulated target.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <numeric>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "core/acquisition.hpp"
#include "core/attack.hpp"
#include "core/campaign_runner.hpp"
#include "core/hints.hpp"
#include "lwe/dbdd.hpp"

namespace reveal::bench {

/// The acquisition configuration used by the paper-style experiments:
/// SEAL-128 modulus, default leakage model.
inline core::CampaignConfig default_campaign(std::size_t n = 64) {
  core::CampaignConfig cfg;
  cfg.n = n;
  cfg.moduli = {132120577ULL};
  return cfg;
}

/// "Lab-grade" acquisition (low noise, strong per-bit spread): the regime
/// in which per-coefficient posteriors become near-deterministic, like the
/// paper's Table II.
inline core::CampaignConfig lab_campaign(std::size_t n = 64) {
  core::CampaignConfig cfg = default_campaign(n);
  cfg.leakage.noise_sigma = 0.01;
  cfg.leakage.bit_deviation = 0.35;
  return cfg;
}

/// The SEAL-128 DBDD instance (n = 1024, q = 132120577, sigma = 3.2) with
/// `error_dim` error coordinates — 1024 in the paper's Tables III and IV.
inline lwe::DbddParams seal128_params(std::size_t error_dim = 1024) {
  lwe::DbddParams params;
  params.secret_dim = 1024;
  params.error_dim = error_dim;
  params.q = 132120577.0;
  params.secret_variance = 3.2 * 3.2;
  params.error_variance = 3.2 * 3.2;
  return params;
}

/// seal128_params for a campaign of `captures` captures of `n` windows: the
/// paper's 1024 error coordinates, or one per window when the campaign has
/// more — the campaign engine gives every hint a coordinate of its own.
inline lwe::DbddParams seal128_params_for(std::size_t captures, std::size_t n) {
  return seal128_params(std::max<std::size_t>(1024, captures * n));
}

/// Hint routing of paper §IV-C: a guess is a perfect hint when its
/// posterior variance is ~0 (zero detections included), otherwise an
/// approximate hint with that variance.
inline constexpr core::HintPolicy kPaperHints{.perfect_threshold = 1e-6,
                                              .zero_hint_variance = 0.0};

/// A paper bench's attack phase: one campaign-engine run (robust attack,
/// kPaperHints routing) plus its diagnostics.
struct AttackRun {
  core::RecoveryCampaignResult result;
  core::CampaignDiagnostics diag;

  /// Percentage of the windows with a guess and ground truth (the confusion
  /// tally's) whose sign was classified correctly.
  [[nodiscard]] double sign_accuracy() const {
    return 100.0 *
           static_cast<double>(diag.registry.counter_value("classify.sign_correct")) /
           static_cast<double>(diag.confusion.total());
  }
  /// Every capture's guesses, concatenated in capture order.
  [[nodiscard]] std::vector<core::CoefficientGuess> guesses() const {
    std::vector<core::CoefficientGuess> out;
    for (const core::RobustCaptureResult& c : result.captures)
      out.insert(out.end(), c.guesses.begin(), c.guesses.end());
    return out;
  }
};

/// Attacks the captures of seeds first_seed, first_seed + 1, ... under
/// `cfg` on the campaign engine. The estimate is over a SEAL-128 instance
/// with one error coordinate per attacked window.
inline AttackRun attack_campaign(const core::RevealAttack& attack,
                                 const core::CampaignConfig& cfg, std::uint64_t first_seed,
                                 std::size_t captures) {
  std::vector<std::uint64_t> seeds(captures);
  std::iota(seeds.begin(), seeds.end(), first_seed);
  AttackRun run;
  core::CampaignRunner runner(core::resolved_num_workers(cfg));
  run.result = runner.run_recovery_campaign(attack, cfg, seeds, kPaperHints,
                                            seal128_params(captures * cfg.n), &run.diag);
  return run;
}

/// Strict command line shared by every bench. A bench declares its flags;
/// a value flag takes `--name=v` or `--name v`. An unknown or repeated
/// flag, a value flag without a value, a value on a switch, a positional
/// argument, or a malformed or out-of-range number prints the usage line
/// to stderr and exits with status 2.
class Cli {
 public:
  struct Flag {
    const char* name;              ///< e.g. "--captures"
    const char* value = nullptr;   ///< value placeholder ("<n>"); nullptr: a switch
  };

  /// Parses argv against `flags`. Arguments that start with
  /// `passthrough_prefix` (when given) are kept, unparsed, for another
  /// parser — google-benchmark's --benchmark_* flags.
  Cli(int argc, char** argv, std::vector<Flag> flags,
      const char* passthrough_prefix = nullptr)
      : flags_(std::move(flags)) {
    const std::string prog = argc > 0 ? argv[0] : "bench";
    usage_ = "usage: " + prog.substr(prog.find_last_of('/') + 1);
    for (const Flag& f : flags_) {
      usage_ += std::string(" [") + f.name + (f.value ? std::string(" ") + f.value : "") + "]";
    }
    if (passthrough_prefix != nullptr) usage_ += std::string(" [") + passthrough_prefix + "...]";
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (passthrough_prefix != nullptr && arg.rfind(passthrough_prefix, 0) == 0) {
        passthrough_.push_back(argv[i]);
        continue;
      }
      const std::size_t eq = arg.find('=');
      const std::string name = arg.substr(0, eq);
      const Flag* flag = find(name);
      if (flag == nullptr) fail("unknown argument '" + arg + "'");
      if (values_.count(name) != 0) fail("repeated flag " + name);
      std::string value;
      if (flag->value == nullptr) {
        if (eq != std::string::npos) fail(name + " takes no value");
      } else if (eq != std::string::npos) {
        value = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      if (flag->value != nullptr && value.empty()) fail(name + " needs a value " + flag->value);
      values_.emplace(name, std::move(value));
    }
  }

  [[nodiscard]] bool has(const char* name) const { return values_.count(name) != 0; }

  /// The flag's value, or `fallback` when it is absent.
  [[nodiscard]] std::string string(const char* name, const std::string& fallback = "") const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  /// The flag's value as a decimal integer in [min, max], or `fallback`
  /// when it is absent.
  [[nodiscard]] long integer(const char* name, long fallback, long min, long max) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    const std::string& text = it->second;
    long value = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    const bool overflow = ec == std::errc::result_out_of_range;
    if ((ec != std::errc{} && !overflow) || end != text.data() + text.size()) {
      fail("malformed number '" + text + "' for " + name);
    }
    if (overflow || value < min || value > max) {
      fail(std::string(name) + " must be in [" + std::to_string(min) + ", " +
           std::to_string(max) + "], got " + text);
    }
    return value;
  }

  /// Arguments matching the passthrough prefix, in command-line order.
  [[nodiscard]] const std::vector<char*>& passthrough() const noexcept { return passthrough_; }

  [[noreturn]] void fail(const std::string& message) const {
    std::fprintf(stderr, "%s\n%s\n", message.c_str(), usage_.c_str());
    std::exit(2);
  }

 private:
  [[nodiscard]] const Flag* find(const std::string& name) const {
    for (const Flag& f : flags_) {
      if (name == f.name) return &f;
    }
    return nullptr;
  }

  std::vector<Flag> flags_;
  std::string usage_;
  std::map<std::string, std::string> values_;
  std::vector<char*> passthrough_;
};

inline void print_header(const char* experiment, const char* description) {
  std::printf("==============================================================\n");
  std::printf("RevEAL reproduction — %s\n", experiment);
  std::printf("%s\n", description);
  std::printf("==============================================================\n");
}

inline void print_row(const char* label, double paper, double measured,
                      const char* unit = "") {
  std::printf("  %-42s paper: %10.2f   measured: %10.2f %s\n", label, paper, measured,
              unit);
}

inline void print_note(const char* note) { std::printf("  note: %s\n", note); }

}  // namespace reveal::bench
