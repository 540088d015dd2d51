#include "core/campaign_checkpoint.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/campaign_obs.hpp"
#include "numeric/binary_io.hpp"

namespace reveal::core {

namespace {

constexpr std::uint32_t kCheckpointMarker = 0x52'56'43'50;  // "PCVR"
constexpr std::uint32_t kCheckpointEndMarker = 0x50'43'56'52;
// Version 4: the digest in the file header also covers the trained attack,
// the hint policy and the estimator parameters. A version-3 file was
// checked against the schedule and the capture config only.
constexpr std::uint32_t kCheckpointVersion = 4;
constexpr std::uint64_t kMaxCheckpointCaptures = std::uint64_t{1} << 32;
constexpr std::uint64_t kMaxHintsPerCapture = std::uint64_t{1} << 20;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return fnv1a(h, bits);
}

std::uint64_t fnv1a(std::uint64_t h, std::span<const double> values) {
  h = fnv1a(h, std::uint64_t{values.size()});
  for (const double v : values) h = fnv1a(h, v);
  return h;
}

std::uint64_t fnv1a(std::uint64_t h, const std::optional<sca::TemplateSet>& templates) {
  h = fnv1a(h, std::uint64_t{templates.has_value()});
  if (!templates) return h;
  h = fnv1a(h, std::uint64_t{templates->classes().size()});
  for (const auto& [label, mean, count] : templates->classes()) {
    h = fnv1a(h, static_cast<std::uint64_t>(label));
    h = fnv1a(h, mean);
    h = fnv1a(h, std::uint64_t{count});
  }
  h = fnv1a(h, templates->inv_covariance().data());
  return fnv1a(h, templates->log_det());
}

// What RevealAttack holds after training: its config, the sign classifier
// and, per sign class, the POIs and the template set. The templates'
// factored scoring terms are functions of the means and the inverse
// covariance, so they are covered without being hashed.
std::uint64_t fnv1a(std::uint64_t h, const RevealAttack& attack) {
  const auto& [sign_prefix, value_prefix, poi_count, poi_min_spacing, min_class_count,
               abstain_margin, low_confidence_margin, value_commit_threshold,
               min_window_quality, sign_fit_threshold, value_fit_threshold] = attack.config();
  for (const std::uint64_t v : {std::uint64_t{sign_prefix}, std::uint64_t{value_prefix},
                                std::uint64_t{poi_count}, std::uint64_t{poi_min_spacing},
                                std::uint64_t{min_class_count}}) {
    h = fnv1a(h, v);
  }
  for (const double v : {abstain_margin, low_confidence_margin, value_commit_threshold,
                         min_window_quality, sign_fit_threshold, value_fit_threshold}) {
    h = fnv1a(h, v);
  }

  const sca::PatternClassifier& sign = attack.sign_classifier();
  h = fnv1a(h, std::uint64_t{sign.prefix_length()});
  h = fnv1a(h, std::uint64_t{sign.patterns().size()});
  for (const auto& [label, pattern] : sign.patterns()) {
    h = fnv1a(h, static_cast<std::uint64_t>(label));
    h = fnv1a(h, pattern);
  }
  h = fnv1a(h, sign.inv_variance());

  for (const std::vector<std::size_t>* pois : {&attack.positive_pois(), &attack.negative_pois()}) {
    h = fnv1a(h, std::uint64_t{pois->size()});
    for (const std::size_t p : *pois) h = fnv1a(h, std::uint64_t{p});
  }
  h = fnv1a(h, attack.positive_templates());
  return fnv1a(h, attack.negative_templates());
}

// Only the tally's counts are written: its variance sum adds up in the
// order the workers happened to route captures, so saving it would make the
// checkpoint bytes depend on the schedule (finalize never reads it).
void write_tally(std::ostream& out, const HintTally& t) {
  num::io::write_pod<std::uint64_t>(out, t.perfect);
  num::io::write_pod<std::uint64_t>(out, t.approximate);
  num::io::write_pod<std::uint64_t>(out, t.sign_only);
  num::io::write_pod<std::uint64_t>(out, t.skipped);
}

HintTally read_tally(std::istream& in) {
  HintTally t;
  t.perfect = static_cast<std::size_t>(num::io::read_pod<std::uint64_t>(in));
  t.approximate = static_cast<std::size_t>(num::io::read_pod<std::uint64_t>(in));
  t.sign_only = static_cast<std::size_t>(num::io::read_pod<std::uint64_t>(in));
  t.skipped = static_cast<std::size_t>(num::io::read_pod<std::uint64_t>(in));
  return t;
}

// HintRecord is written field-wise (kind byte + variance), never as a raw
// struct: the padding bytes of the in-memory layout are indeterminate and
// would make checkpoint bytes nondeterministic.
void write_hint(std::ostream& out, const HintRecord& r) {
  num::io::write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(r.kind));
  num::io::write_pod(out, r.variance);
}

HintRecord read_hint(std::istream& in) {
  HintRecord r;
  const auto kind = num::io::read_pod<std::uint8_t>(in);
  if (kind > static_cast<std::uint8_t>(HintRecord::Kind::kSkipped))
    throw std::runtime_error("campaign checkpoint: unknown hint kind");
  r.kind = static_cast<HintRecord::Kind>(kind);
  r.variance = num::io::read_pod<double>(in);
  return r;
}

}  // namespace

// Every field that shapes an output feeds the digest, one by one. Each
// hashed struct is unpacked with a structured binding, which stops
// compiling when the struct gains or loses a field, and pinned by size as
// a second guard: a new knob cannot slip past the stale-checkpoint check.
// The trained classes have private members, so their size is the guard.
static_assert(sizeof(power::LeakageParams) == 136, "LeakageParams changed: update campaign_digest");
static_assert(sizeof(power::FaultSpec) == 104, "FaultSpec changed: update campaign_digest");
static_assert(sizeof(sca::SegmentationConfig) == 24,
              "SegmentationConfig changed: update campaign_digest");
static_assert(sizeof(CampaignConfig) == 320, "CampaignConfig changed: update campaign_digest");
static_assert(sizeof(AttackConfig) == 88, "AttackConfig changed: update campaign_digest");
static_assert(sizeof(sca::PatternClassifier) == 80,
              "PatternClassifier changed: update campaign_digest");
static_assert(sizeof(sca::TemplateSet::ClassTemplate) == 40,
              "TemplateSet::ClassTemplate changed: update campaign_digest");
static_assert(sizeof(sca::TemplateSet) == 128, "TemplateSet changed: update campaign_digest");
static_assert(sizeof(RevealAttack) == 488, "RevealAttack changed: update campaign_digest");
static_assert(sizeof(HintPolicy) == 56, "HintPolicy changed: update campaign_digest");
static_assert(sizeof(lwe::DbddParams) == 40, "DbddParams changed: update campaign_digest");

std::uint64_t campaign_digest(std::uint64_t base_seed, std::uint64_t total_captures,
                              const CampaignConfig& config, const RevealAttack& attack,
                              const HintPolicy& policy, const lwe::DbddParams& params) {
  // num_workers is the one field left out: every worker count produces
  // the same output bytes, so a run may resume with a different one.
  const auto& [n, moduli, patched_firmware, shuffled_firmware, masked_firmware, leakage,
               faults, segmentation, num_workers, victim_tier] = config;
  (void)num_workers;
  std::uint64_t h = 0xCBF29CE484222325ull;
  h = fnv1a(h, base_seed);
  h = fnv1a(h, total_captures);
  h = fnv1a(h, std::uint64_t{n});
  h = fnv1a(h, std::uint64_t{moduli.size()});
  for (const std::uint64_t m : moduli) h = fnv1a(h, m);
  h = fnv1a(h, std::uint64_t{(patched_firmware ? 1u : 0u) | (shuffled_firmware ? 2u : 0u) |
                             (masked_firmware ? 4u : 0u)});
  h = fnv1a(h, static_cast<std::uint64_t>(victim_tier));

  const auto& [w_hd, w_hw, w_mem, w_serial, bit_deviation, noise_sigma, drift_sigma,
               bit_weight_seed, base_alu, base_alu_imm, base_load, base_store, base_branch,
               base_jump, base_mul, base_div, base_system] = leakage;
  for (const double v : {w_hd, w_hw, w_mem, w_serial, bit_deviation, noise_sigma, drift_sigma,
                         base_alu, base_alu_imm, base_load, base_store, base_branch, base_jump,
                         base_mul, base_div, base_system}) {
    h = fnv1a(h, v);
  }
  h = fnv1a(h, bit_weight_seed);

  const auto& [jitter_sigma, dropout_rate, glitch_count, glitch_amplitude, burst_count,
               burst_length, burst_sigma, fault_drift_sigma, clip, clip_lo, clip_hi,
               trigger_misalign, fault_seed] = faults;
  for (const double v : {jitter_sigma, dropout_rate, glitch_amplitude, burst_sigma,
                         fault_drift_sigma, clip_lo, clip_hi}) {
    h = fnv1a(h, v);
  }
  for (const std::uint64_t v : {std::uint64_t{glitch_count}, std::uint64_t{burst_count},
                                std::uint64_t{burst_length}, std::uint64_t{trigger_misalign},
                                std::uint64_t{clip ? 1u : 0u}, fault_seed}) {
    h = fnv1a(h, v);
  }

  const auto& [smooth_window, threshold, min_burst_length] = segmentation;
  h = fnv1a(h, std::uint64_t{smooth_window});
  h = fnv1a(h, threshold);
  h = fnv1a(h, std::uint64_t{min_burst_length});

  h = fnv1a(h, attack);

  const auto& [perfect_threshold, low_confidence_inflation, min_inflated_variance, sigma,
               max_deviation, abstained_zero_variance, zero_hint_variance] = policy;
  for (const double v : {perfect_threshold, low_confidence_inflation, min_inflated_variance,
                         sigma, max_deviation, abstained_zero_variance, zero_hint_variance}) {
    h = fnv1a(h, v);
  }

  const auto& [secret_dim, error_dim, q, secret_variance, error_variance] = params;
  h = fnv1a(h, std::uint64_t{secret_dim});
  h = fnv1a(h, std::uint64_t{error_dim});
  for (const double v : {q, secret_variance, error_variance}) h = fnv1a(h, v);
  return h;
}

void CampaignAccumulator::fold_capture(const RobustCaptureResult& res) {
  recovered_windows += res.segmentation.segments.size();
  segmentation_attempts += res.segmentation.attempts;
  capture_consistency.push_back(res.segmentation.burst_consistency);
  worst_status = std::max(worst_status, res.segmentation.status);
  for (const CoefficientGuess& g : res.guesses) {
    switch (g.quality) {
      case GuessQuality::kOk: ++ok_guesses; break;
      case GuessQuality::kLowConfidence: ++low_confidence_guesses; break;
      case GuessQuality::kAbstained: ++abstained_guesses; break;
    }
  }
}

void CampaignAccumulator::save(std::ostream& out) const {
  num::io::write_pod<std::uint32_t>(out, kCheckpointMarker);
  num::io::write_pod<std::uint32_t>(out, kCheckpointVersion);
  num::io::write_pod<std::uint64_t>(out, next_index);
  num::io::write_pod<std::uint64_t>(out, recovered_windows);
  num::io::write_pod<std::uint64_t>(out, segmentation_attempts);
  num::io::write_pod<std::uint8_t>(out, static_cast<std::uint8_t>(worst_status));
  num::io::write_vec(out, capture_consistency);
  num::io::write_pod<std::uint64_t>(out, ok_guesses);
  num::io::write_pod<std::uint64_t>(out, low_confidence_guesses);
  num::io::write_pod<std::uint64_t>(out, abstained_guesses);
  write_tally(out, worker_tally);
  num::io::write_pod<std::uint64_t>(out, hints.size());
  for (const auto& records : hints) {
    num::io::write_pod<std::uint64_t>(out, records.size());
    for (const HintRecord& r : records) write_hint(out, r);
  }
  registry.save(out);
  confusion.save(out);
  num::io::write_pod<std::uint32_t>(out, kCheckpointEndMarker);
}

CampaignAccumulator CampaignAccumulator::load(std::istream& in) {
  num::io::expect_marker(in, kCheckpointMarker, "CampaignAccumulator");
  if (num::io::read_pod<std::uint32_t>(in) != kCheckpointVersion)
    throw std::runtime_error("campaign checkpoint: unsupported version");
  CampaignAccumulator acc;
  acc.next_index = num::io::read_pod<std::uint64_t>(in);
  acc.recovered_windows = num::io::read_pod<std::uint64_t>(in);
  acc.segmentation_attempts = num::io::read_pod<std::uint64_t>(in);
  const auto status = num::io::read_pod<std::uint8_t>(in);
  if (status > static_cast<std::uint8_t>(sca::SegmentationStatus::kFailed))
    throw std::runtime_error("campaign checkpoint: unknown segmentation status");
  acc.worst_status = static_cast<sca::SegmentationStatus>(status);
  acc.capture_consistency = num::io::read_vec<double>(in, kMaxCheckpointCaptures);
  acc.ok_guesses = num::io::read_pod<std::uint64_t>(in);
  acc.low_confidence_guesses = num::io::read_pod<std::uint64_t>(in);
  acc.abstained_guesses = num::io::read_pod<std::uint64_t>(in);
  acc.worker_tally = read_tally(in);
  const auto captures = num::io::read_pod<std::uint64_t>(in);
  if (captures > kMaxCheckpointCaptures)
    throw std::runtime_error("campaign checkpoint: implausible capture count");
  if (captures != acc.next_index || acc.capture_consistency.size() != acc.next_index)
    throw std::runtime_error("campaign checkpoint: cursor/hint-count mismatch");
  acc.hints.reserve(static_cast<std::size_t>(captures));
  for (std::uint64_t i = 0; i < captures; ++i) {
    const auto count = num::io::read_pod<std::uint64_t>(in);
    if (count > kMaxHintsPerCapture)
      throw std::runtime_error("campaign checkpoint: implausible hint count");
    std::vector<HintRecord> records;
    records.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t r = 0; r < count; ++r) records.push_back(read_hint(in));
    acc.hints.push_back(std::move(records));
  }
  acc.registry = obs::Registry::load(in);
  acc.confusion = sca::ConfusionMatrix::load(in);
  num::io::expect_marker(in, kCheckpointEndMarker, "CampaignAccumulator end");
  return acc;
}

namespace {

/// The fold body, templated on whether anything observes it: kDiag=false
/// instantiates with obs::NullSpanTracer and no counter code at all, so
/// "observability off changes nothing" holds by construction; kDiag=true
/// only ever reads pipeline outputs.
template <bool kDiag>
void fold_range(WorkerPool& pool, const RevealAttack& attack, const CampaignConfig& config,
                std::span<const std::uint64_t> seeds, std::size_t begin, std::size_t count,
                const HintPolicy& policy, CampaignAccumulator& acc, obs::SpanTracer* spans) {
  const std::size_t worker_slots = std::max<std::size_t>(pool.num_workers(), 1);
  std::vector<RobustCaptureResult> captures(count);
  std::vector<std::vector<HintRecord>> hints(count);
  std::vector<std::vector<std::int64_t>> truth(acc.keep_captures ? count : 0);
  std::vector<HintTally> tallies(worker_slots);
  std::vector<detail::WorkerObs> worker_obs(kDiag ? worker_slots : 0);
  // Fresh replicas per range: their fault stats then cover exactly these
  // captures, so the fold below is resume-correct (a replica reused across
  // ranges would double-count on every fold).
  detail::CampaignReplicas replicas(config, pool.num_workers());

  // Each capture is one task whose windows are attacked in order inside it:
  // captures outnumber workers in every campaign-shaped sweep. Results land
  // in index slots.
  pool.run_indexed(count, [&](std::size_t i, std::size_t w) {
    const std::size_t index = begin + i;
    FullCapture& cap = replicas.scratch_for(w);
    RobustCaptureResult res;
    std::vector<HintRecord> records;
    auto route = [&] {
      if (res.segmentation.status == sca::SegmentationStatus::kFailed) return;
      records.reserve(res.guesses.size());
      for (const CoefficientGuess& g : res.guesses) {
        records.push_back(route_guess(g, policy));
        tallies[w].add(records.back());
      }
    };
    if constexpr (kDiag) {
      detail::WorkerObs& o = worker_obs[w];
      const auto span_index = static_cast<std::uint32_t>(index);
      {
        auto span = o.tracer.span(obs::Stage::kCapture, span_index);
        replicas.for_worker(w).capture_into(seeds[index], cap);
      }
      res = attack.attack_capture_robust_traced(cap.trace, config.n, config.segmentation,
                                                o.tracer, span_index);
      {
        auto span = o.tracer.span(obs::Stage::kHints, span_index);
        route();
      }
      detail::count_capture(o, config, cap, res, records);
    } else {
      replicas.for_worker(w).capture_into(seeds[index], cap);
      res = attack.attack_capture_robust(cap.trace, config.n, config.segmentation);
      route();
    }
    captures[i] = std::move(res);
    hints[i] = std::move(records);
    if (!truth.empty()) truth[i] = cap.noise;
  });

  // Ordered folds — capture order for the report partials and hints,
  // worker order for tallies and observability.
  for (std::size_t i = 0; i < count; ++i) {
    acc.fold_capture(captures[i]);
    acc.hints.push_back(std::move(hints[i]));
    if (acc.keep_captures) acc.captures.push_back(std::move(captures[i]));
    if (!truth.empty()) acc.truth.push_back(std::move(truth[i]));
  }
  for (const HintTally& t : tallies) acc.worker_tally.merge(t);
  if constexpr (kDiag) {
    for (const detail::WorkerObs& o : worker_obs) {
      acc.registry.merge(o.registry);
      acc.confusion.merge(o.confusion);
      spans->merge(o.tracer);
    }
    const power::FaultStats faults = replicas.merged_fault_stats();
    obs::Registry& reg = acc.registry;
    reg.add(reg.counter("faults.captures"), faults.captures);
    reg.add(reg.counter("faults.dropped_samples"), faults.dropped_samples);
    reg.add(reg.counter("faults.glitch_samples"), faults.glitch_samples);
    reg.add(reg.counter("faults.burst_windows"), faults.burst_windows);
    reg.add(reg.counter("faults.drifted_captures"), faults.drifted_captures);
    reg.add(reg.counter("faults.clipped_samples"), faults.clipped_samples);
    reg.add(reg.counter("faults.misaligned_captures"), faults.misaligned_captures);
    reg.add(reg.counter("faults.warped_captures"), faults.warped_captures);
  }
  acc.next_index += count;
}

}  // namespace

void accumulate_campaign_range(WorkerPool& pool, const RevealAttack& attack,
                               const CampaignConfig& config,
                               std::span<const std::uint64_t> seeds, std::uint64_t begin,
                               std::uint64_t end, const HintPolicy& policy,
                               CampaignAccumulator& acc, obs::SpanTracer* spans) {
  if (end < begin || end > seeds.size())
    throw std::invalid_argument("accumulate_campaign_range: range outside the seed schedule");
  if (config.shuffled_firmware)
    throw std::invalid_argument(
        "accumulate_campaign_range: shuffled firmware hides the coefficient order "
        "(2n - 1 bursts, no positional hints)");
  const auto first = static_cast<std::size_t>(begin);
  const auto count = static_cast<std::size_t>(end - begin);
  if (spans != nullptr) {
    fold_range<true>(pool, attack, config, seeds, first, count, policy, acc, spans);
  } else {
    fold_range<false>(pool, attack, config, seeds, first, count, policy, acc, nullptr);
  }
}

RecoveryCampaignResult finalize_campaign(CampaignAccumulator&& acc,
                                         std::size_t windows_per_capture,
                                         const lwe::DbddParams& params,
                                         CampaignDiagnostics* diag, obs::SpanTracer* spans) {
  RecoveryCampaignResult out;
  HintTally recount;
  for (const auto& records : acc.hints) {
    for (const HintRecord& r : records) recount.add(r);
  }
  if (recount.perfect != acc.worker_tally.perfect ||
      recount.approximate != acc.worker_tally.approximate ||
      recount.sign_only != acc.worker_tally.sign_only ||
      recount.skipped != acc.worker_tally.skipped) {
    throw std::logic_error(
        "finalize_campaign: accumulated tallies diverge from the ordered recount "
        "(lost update in shared accumulation)");
  }
  // The float sum is taken from the recount: capture order is the one order
  // that exists for every worker count and batch size.
  out.hint_totals = recount.summary();

  // Estimator integration replays the routed hints in capture order on this
  // thread — its state update is floating-point order-sensitive.
  auto integrate = [&] {
    lwe::DbddEstimator estimator(params);
    for (const auto& records : acc.hints) {
      for (const HintRecord& r : records) apply_hint(estimator, r);
    }
    return estimator.estimate();
  };
  lwe::SecurityEstimate estimate;
  if (spans != nullptr) {
    auto span = spans->span(obs::Stage::kEstimation);
    estimate = integrate();
  } else {
    estimate = integrate();
  }

  double consistency_sum = 0.0;
  for (const double c : acc.capture_consistency) consistency_sum += c;

  sca::RecoveryReport& rep = out.report;
  const std::uint64_t total = acc.next_index;
  rep.expected_windows = static_cast<std::size_t>(total) * windows_per_capture;
  rep.recovered_windows = acc.recovered_windows;
  rep.segmentation_status = acc.worst_status;
  rep.segmentation_attempts = acc.segmentation_attempts;
  if (total > 0) rep.burst_consistency = consistency_sum / static_cast<double>(total);
  rep.ok_guesses = acc.ok_guesses;
  rep.low_confidence_guesses = acc.low_confidence_guesses;
  rep.abstained_guesses = acc.abstained_guesses;
  rep.perfect_hints = out.hint_totals.perfect;
  rep.approximate_hints = out.hint_totals.approximate;
  rep.sign_only_hints = out.hint_totals.sign_only;
  rep.dropped_hints = out.hint_totals.skipped;
  rep.bikz = estimate.beta;
  rep.bits = estimate.bits;

  if (diag != nullptr) {
    diag->registry.merge(acc.registry);
    diag->confusion.merge(acc.confusion);
  }
  out.captures = std::move(acc.captures);
  out.truth = std::move(acc.truth);
  out.hints = std::move(acc.hints);
  return out;
}

void require_hint_capacity(std::uint64_t captures, std::size_t windows_per_capture,
                           const lwe::DbddParams& params) {
  // captures * windows > error_dim, without the product overflowing.
  if (windows_per_capture != 0 && captures > params.error_dim / windows_per_capture)
    throw std::invalid_argument(
        "campaign: " + std::to_string(captures) + " captures x " +
        std::to_string(windows_per_capture) + " windows can route more hints than the " +
        std::to_string(params.error_dim) + " error coordinates of the estimator");
}

namespace {

/// Atomic checkpoint write: the old checkpoint stays intact until the new
/// bytes are fully on disk (rename is atomic within a filesystem), so a
/// kill mid-save loses at most one batch of progress.
void save_checkpoint(const std::string& path, std::uint64_t digest,
                     std::uint64_t total, const CampaignAccumulator& acc) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("campaign checkpoint: cannot write " + tmp);
    num::io::write_pod<std::uint64_t>(out, digest);
    num::io::write_pod<std::uint64_t>(out, total);
    acc.save(out);
    out.flush();
    if (!out) throw std::runtime_error("campaign checkpoint: write failed for " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("campaign checkpoint: cannot rename " + tmp);
}

/// Loads and validates an existing checkpoint; false when none exists.
bool load_checkpoint(const std::string& path, std::uint64_t digest,
                     std::uint64_t total, CampaignAccumulator& acc) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  if (num::io::read_pod<std::uint64_t>(in) != digest)
    throw std::runtime_error("campaign checkpoint: campaign digest mismatch in " + path);
  if (num::io::read_pod<std::uint64_t>(in) != total)
    throw std::runtime_error("campaign checkpoint: capture count mismatch in " + path);
  acc = CampaignAccumulator::load(in);
  if (acc.next_index > total)
    throw std::runtime_error("campaign checkpoint: cursor past schedule in " + path);
  return true;
}

}  // namespace

CheckpointedCampaignResult run_recovery_campaign_checkpointed(
    CampaignRunner& runner, const RevealAttack& attack, const CampaignConfig& config,
    std::uint64_t base_seed, std::size_t total_captures, const HintPolicy& policy,
    const lwe::DbddParams& params, const CheckpointOptions& options) {
  if (options.path.empty())
    throw std::invalid_argument("run_recovery_campaign_checkpointed: empty path");
  if (options.batch_size == 0)
    throw std::invalid_argument("run_recovery_campaign_checkpointed: zero batch size");
  require_hint_capacity(total_captures, config.n, params);

  const std::uint64_t digest =
      campaign_digest(base_seed, total_captures, config, attack, policy, params);
  CheckpointedCampaignResult result;
  CampaignAccumulator acc;
  result.resumed = load_checkpoint(options.path, digest, total_captures, acc);

  const std::vector<std::uint64_t> seeds =
      CampaignRunner::stream_seeds(base_seed, total_captures);
  std::size_t batches = 0;
  while (acc.next_index < total_captures &&
         (options.max_batches_per_call == 0 || batches < options.max_batches_per_call)) {
    const std::uint64_t begin = acc.next_index;
    const std::uint64_t end =
        std::min<std::uint64_t>(begin + options.batch_size, total_captures);
    accumulate_campaign_range(runner.pool(), attack, config, seeds, begin, end, policy, acc,
                              &result.diagnostics.tracer);
    result.processed_this_call += end - begin;
    save_checkpoint(options.path, digest, total_captures, acc);
    ++batches;
  }

  result.next_index = acc.next_index;
  if (acc.next_index < total_captures) return result;  // interrupted run

  result.campaign = finalize_campaign(std::move(acc), config.n, params, &result.diagnostics,
                                      &result.diagnostics.tracer);
  result.complete = true;
  if (!options.keep_checkpoint) std::remove(options.path.c_str());
  return result;
}

}  // namespace reveal::core
