// e2ebench — the repository's end-to-end benchmark.
//
// Every workload runs the attacker's pipeline as one closed loop with a
// single client, serially in this process (CampaignConfig::num_workers = 0,
// no worker pool): the next capture or victim starts only when the previous
// one is done. A run sets the workload up several times (set-up is timed on
// its own), then repeats one "pass" of the workload until --seconds have
// elapsed. Every pass attacks the same generated inputs, so its outputs
// must repeat exactly; timings take each step's minimum over the passes.
//
//   clean_campaign     profile default-noise captures, then attack 16-capture
//                      blocks: capture -> robust attack -> hint routing into
//                      a 1024-coordinate DBDD estimator, estimate() per block,
//                      BKZ-simulated estimates on the final block.
//   degraded_campaign  the same pipeline against captures degraded by the
//                      L3-moderate acquisition faults.
//   files_recovery     attack_cli's files-only attack at scale: per victim,
//                      load pk/ct/trace, attack, residual search, recover the
//                      message.
//
// --trace 1 makes a separate traced run: spans around the same calls (and,
// for each attacked capture, a replay of its seed through the public
// capture-plane calls that splits the capture into ISS, recorder, noise,
// faults and segmentation), per-layer metrics, and a Chrome trace-event
// file. The last stdout line is the result JSON; the line before it records
// the build and the run's sample counts.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "core/acquisition.hpp"
#include "core/attack.hpp"
#include "core/campaign_runner.hpp"
#include "core/hints.hpp"
#include "core/message_recovery.hpp"
#include "core/residual_search.hpp"
#include "core/victim.hpp"
#include "lwe/dbdd.hpp"
#include "power/fault_injector.hpp"
#include "power/leakage_model.hpp"
#include "power/trace_recorder.hpp"
#include "sca/segmentation.hpp"
#include "sca/trace.hpp"
#include "seal/encryptor.hpp"
#include "seal/keys.hpp"
#include "seal/sampler.hpp"
#include "seal/serialization.hpp"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif
#ifndef E2EBENCH_CXX_FLAGS
#define E2EBENCH_CXX_FLAGS "unknown"
#endif
#ifndef E2EBENCH_GIT_COMMIT
#define E2EBENCH_GIT_COMMIT "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define E2EBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
#define E2EBENCH_SANITIZED 1
#endif
#endif

namespace {

using namespace reveal;
using namespace reveal::core;
using e2ebench::SpanLog;
using e2ebench::SpanRecord;

constexpr std::size_t kN = 64;                 ///< coefficients per firmware run
constexpr std::uint64_t kQ = 132120577ULL;     ///< SEAL-128 modulus of the victim
constexpr std::size_t kBlockCaptures = 16;     ///< 16 x 64 = 1024 error coordinates
/// Campaign workloads: blocks per pass. Short passes give each capture many
/// passes to take its minimum time over.
constexpr std::size_t kBlocks = 24;
constexpr std::size_t kAttackCaptures = kBlocks * kBlockCaptures;
constexpr std::size_t kMinPasses = 3;          ///< fewer passes in --seconds: run too short
/// A run sets up as often as kSetupShare of --seconds allows at the first
/// set-up's speed, within [kMinSetups, kMaxSetups], spread evenly between
/// the passes so that setup_s, a median, does not depend on a single moment
/// of the host.
constexpr double kSetupShare = 0.3;
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 25;
constexpr std::size_t kPrefixCheck = 16;       ///< captures cross-checked per run

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

// ---------------------------------------------------------------------------
// Tracing: spans are recorded only when a log is attached.

class Tracer {
 public:
  explicit Tracer(SpanLog* log = nullptr) : log_(log) {}
  [[nodiscard]] SpanLog* log() const noexcept { return log_; }

  class Scope {
   public:
    Scope(SpanLog* log, const char* name, std::uint64_t item)
        : log_(log), index_(log != nullptr ? log->open(name, item, now_ns()) : 0) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (log_ != nullptr) log_->close(index_, now_ns());
    }
    [[nodiscard]] std::size_t index() const noexcept { return index_; }

   private:
    SpanLog* log_;
    std::size_t index_;
  };

  [[nodiscard]] Scope scope(const char* name, std::uint64_t item = 0) const {
    return Scope(log_, name, item);
  }

 private:
  SpanLog* log_;
};

/// RevealAttack's stage tracer interface, mapped onto the benchmark's span
/// names: the robust attack's segmentation and classification stages.
struct AttackSpans {
  const Tracer* tracer;
  std::uint64_t item;
  [[nodiscard]] Tracer::Scope span(obs::Stage stage, std::uint32_t = 0) const {
    return tracer->scope(
        stage == obs::Stage::kSegmentation ? "sca.segment_robust" : "sca.classify", item);
  }
};

/// Runs the robust attack, with stage spans when tracing.
RobustCaptureResult robust_attack(const RevealAttack& attack, const std::vector<double>& trace,
                                  const sca::SegmentationConfig& seg, const Tracer& tracer,
                                  std::uint64_t item) {
  if (tracer.log() == nullptr) return attack.attack_capture_robust(trace, kN, seg);
  AttackSpans spans{&tracer, item};
  return attack.attack_capture_robust_traced(trace, kN, seg, spans);
}

// ---------------------------------------------------------------------------
// Capture replay: splits SamplerCampaign::capture_into from outside by
// re-running one capture seed through the public calls it is made of.

struct CountingObserver {
  std::uint64_t instructions = 0;
  void on_instruction(const riscv::InstrEvent&) noexcept { ++instructions; }
};

struct ReplayTimes {
  std::uint64_t iss_ns = 0;       ///< run_victim_with + counting observer
  std::uint64_t recorder_ns = 0;  ///< run_victim_with + TraceRecorder, minus ISS and noise
  std::uint64_t noise_ns = 0;     ///< one Gaussian draw per sample
  std::uint64_t faults_ns = 0;    ///< FaultInjector::apply
  std::uint64_t segment_ns = 0;   ///< segment_trace + anchor_windows_at_burst_edge
  std::uint64_t instructions = 0;
  std::uint64_t samples = 0;
  std::uint64_t fault_touched = 0;
};

class CaptureReplayer {
 public:
  CaptureReplayer(const CampaignConfig& config, const VictimProgram& program)
      : config_(config),
        program_(program),
        machine_(program.memory_bytes),
        model_(config.leakage),
        recorder_(model_, 0),
        injector_(config.faults) {
    configure_victim_tier(machine_, config.victim_tier);
    recorder_.reserve(detail::victim_instruction_limit(program_));
  }

  /// Replays `seed`; the final trace (recorder output, then faults) is left
  /// in trace().
  ReplayTimes replay(std::uint64_t seed) {
    ReplayTimes t;
    // The same seed derivation as SamplerCampaign::capture_into.
    num::Xoshiro256StarStar derive(seed);
    const auto prng_seed = static_cast<std::uint32_t>(derive() | 1u);
    const std::uint64_t noise_seed = derive();

    CountingObserver counter;
    std::uint64_t t0 = now_ns();
    (void)run_victim_with(program_, machine_, prng_seed, counter);
    t.iss_ns = now_ns() - t0;
    t.instructions = counter.instructions;

    t0 = now_ns();
    recorder_.begin_capture(noise_seed);
    (void)run_victim_with(program_, machine_, prng_seed, recorder_);
    const std::uint64_t recorder_total = now_ns() - t0;
    t.samples = recorder_.samples().size();

    num::Xoshiro256StarStar noise(noise_seed);
    const double sigma = config_.leakage.noise_sigma;
    double sink = 0.0;
    t0 = now_ns();
    for (std::uint64_t i = 0; i < t.samples; ++i) sink += noise.gaussian(0.0, sigma);
    t.noise_ns = now_ns() - t0;
    noise_sink_ = sink;  // keeps the draws from being optimised away
    t.recorder_ns = recorder_total - std::min(recorder_total, t.iss_ns + t.noise_ns);

    trace_.assign(recorder_.samples().begin(), recorder_.samples().end());
    if (config_.faults.any()) {
      power::FaultStats stats;
      t0 = now_ns();
      trace_ = injector_.apply(std::move(trace_), seed, &stats);
      t.faults_ns = now_ns() - t0;
      t.fault_touched = stats.dropped_samples + stats.glitch_samples + stats.clipped_samples +
                        stats.burst_windows * config_.faults.burst_length;
    }

    t0 = now_ns();
    std::vector<sca::Segment> segments = sca::segment_trace(trace_, config_.segmentation);
    const double threshold = config_.segmentation.threshold > 0.0
                                 ? config_.segmentation.threshold
                                 : sca::auto_threshold(trace_);
    anchor_windows_at_burst_edge(trace_, segments, threshold);
    t.segment_ns = now_ns() - t0;
    return t;
  }

  [[nodiscard]] const std::vector<double>& trace() const noexcept { return trace_; }

 private:
  CampaignConfig config_;
  const VictimProgram& program_;
  riscv::Machine machine_;
  power::LeakageModel model_;
  power::TraceRecorder recorder_;
  power::FaultInjector injector_;
  std::vector<double> trace_;
  volatile double noise_sink_ = 0.0;
};

/// Lays the replayed layer times out inside the closed core.capture span
/// `parent` as estimated children. When the replays add up to more than the
/// span (replays run cold or are preempted), they are scaled to fit.
void add_capture_children(SpanLog& log, std::size_t parent, const ReplayTimes& t,
                          std::uint64_t item) {
  const std::pair<const char*, std::uint64_t> parts[] = {
      {"riscv.iss", t.iss_ns},          {"power.recorder", t.recorder_ns},
      {"power.noise", t.noise_ns},      {"power.faults", t.faults_ns},
      {"sca.segment_capture", t.segment_ns}};
  const SpanRecord& p = log.spans()[parent];
  const std::uint64_t begin = p.begin_ns;
  const std::uint64_t span = p.duration_ns();
  std::uint64_t total = 0;
  for (const auto& part : parts) total += part.second;
  const double scale =
      total > span ? static_cast<double>(span) / static_cast<double>(total) : 1.0;
  std::uint64_t cursor = begin;
  for (const auto& [name, ns] : parts) {
    SpanRecord r;
    r.name = name;
    r.parent = static_cast<std::int64_t>(parent);
    r.item = item;
    r.begin_ns = cursor;
    cursor += static_cast<std::uint64_t>(static_cast<double>(ns) * scale);
    r.end_ns = std::min(cursor, begin + span);
    r.estimated = true;
    log.add(std::move(r));
  }
}

// ---------------------------------------------------------------------------
// Workload definitions

CampaignConfig default_campaign() {
  CampaignConfig cfg;
  cfg.n = kN;
  cfg.moduli = {kQ};
  cfg.num_workers = 0;  // serial: no worker pool anywhere in the pipeline
  return cfg;
}

/// attack_cli's lab-grade acquisition.
CampaignConfig lab_campaign() {
  CampaignConfig cfg = default_campaign();
  cfg.leakage.noise_sigma = 0.01;
  cfg.leakage.bit_deviation = 0.35;
  return cfg;
}

/// bench_fault_tolerance's L3-moderate acquisition faults.
power::FaultSpec l3_moderate(std::uint64_t seed) {
  power::FaultSpec f;
  f.jitter_sigma = 1.0;
  f.dropout_rate = 0.05;
  f.glitch_count = 4;
  f.seed = seed;
  return f;
}

/// bench_fault_tolerance's calibrated degradation gates.
AttackConfig gated_attack() {
  AttackConfig a;
  a.abstain_margin = 0.30;
  a.low_confidence_margin = 0.45;
  a.value_commit_threshold = 0.05;
  a.sign_fit_threshold = 2.5;
  a.value_fit_threshold = 4.0;
  return a;
}

lwe::DbddParams block_params() {
  lwe::DbddParams p;
  p.secret_dim = kBlockCaptures * kN;
  p.error_dim = kBlockCaptures * kN;
  p.q = static_cast<double>(kQ);
  p.secret_variance = 3.2 * 3.2;
  p.error_variance = 3.2 * 3.2;
  return p;
}

struct WorkloadSpec {
  std::string name;
  bool files = false;
  CampaignConfig profile_config;
  CampaignConfig target_config;  ///< attacked captures (campaign workloads)
  AttackConfig attack_config;
  std::size_t profiling_runs = 0;
};

/// files_recovery victims are admitted by the residual-search work their
/// capture needs (tries, from the attacker's own search): a fixed quota per
/// band keeps the per-victim work mix the same for every seed.
struct TriesBand {
  std::size_t lo;     ///< inclusive
  std::size_t hi;     ///< inclusive
  std::size_t quota;
};
/// 112 victims (7 blocks of 16): half need fewer than 256 tries and a
/// tenth 1024 or more, so the p50 and p90 victims sit on band edges.
constexpr TriesBand kVictimBands[] = {
    {1, 15, 11}, {16, 63, 11}, {64, 255, 34}, {256, 1023, 45}, {1024, 2048, 11}};
constexpr std::size_t kAdmitTries = std::end(kVictimBands)[-1].hi;  ///< admission search cap
constexpr std::size_t kMaxCandidates = 4000;
constexpr std::size_t kSearchBudget = 1000000;

std::size_t victims_per_pass() {
  std::size_t v = 0;
  for (const TriesBand& b : kVictimBands) v += b.quota;
  return v;
}

WorkloadSpec make_spec(const std::string& name, const e2ebench::WorkloadInputs& in) {
  WorkloadSpec s;
  s.name = name;
  if (name == "files_recovery") {
    s.files = true;
    s.profile_config = lab_campaign();
    s.target_config = s.profile_config;
    s.profiling_runs = 150;  // attack_cli's profiling
    return s;
  }
  s.profile_config = default_campaign();
  s.target_config = s.profile_config;
  if (name == "degraded_campaign") s.target_config.faults = l3_moderate(in.fault_seed);
  s.attack_config = gated_attack();
  s.profiling_runs = 250;
  return s;
}

// Timing. Every pass does the same work as a fixed list of short steps
// (PassSteps: one profiling capture, one capture_into, one robust attack,
// one estimate, ...), and each step's time is its minimum over the passes.
// On a shared host a co-tenant slows FP- and memory-bound code by up to
// 2.4x in stretches of milliseconds to seconds, and the share of slowed
// time drifts from run to run; a step of a few milliseconds still runs
// unslowed in some pass, so its minimum stays put where any median or
// whole-pass time moves with the host. An item's latency is the sum of its
// steps' minimums (a block's: its captures' and its estimate's);
// throughputs and wall_s are sums of step minimums.
std::size_t attack_latency_samples(const WorkloadSpec& s) {
  return s.files ? victims_per_pass() : kAttackCaptures;
}
std::size_t recovery_latency_samples(const WorkloadSpec& s) {
  return s.files ? victims_per_pass() : kBlocks;
}

// ---------------------------------------------------------------------------
// Set-up

struct Victim {
  std::string dir;
  std::vector<std::uint64_t> message;
  std::vector<std::int64_t> e2;  ///< ground truth, for scoring only
  std::size_t admit_tries = 0;
  std::uint64_t file_bytes = 0;
};

struct Setup {
  std::unique_ptr<SamplerCampaign> profiler;
  std::unique_ptr<SamplerCampaign> target;
  std::unique_ptr<seal::Context> context;
  std::vector<Victim> victims;
  std::size_t candidates = 0;  ///< files_recovery: candidate victims scanned
  std::size_t recovered = 0;   ///< of which the admission search recovered
  /// files_recovery: guesses of every scanned candidate against its true
  /// coefficients (windows aligned, guesses equal to the truth).
  std::size_t aligned = 0;
  std::size_t value_correct = 0;
  /// Capture storage reused by every attacked capture of the run, as a
  /// campaign reuses it: steady-state acquisition allocates nothing.
  std::unique_ptr<FullCapture> capture;
};

seal::EncryptionParameters seal_params() {
  seal::EncryptionParameters parms;
  parms.set_poly_modulus_degree(kN);
  parms.set_coeff_modulus({seal::Modulus(kQ)});
  parms.set_plain_modulus(256);
  return parms;
}

struct Profiled {
  std::unique_ptr<RevealAttack> attack;
  /// Step times: collect_windows of each profiling capture, then train.
  std::vector<double> step_ms;
};

/// The attacker's profiling: clean captures of its own device, then
/// template training. collect_windows is called once per capture (seed
/// base + r, exactly the windows of one call over all of them), so each
/// profiling capture is a step of its own.
Profiled profile(const Setup& s, const WorkloadSpec& spec, const e2ebench::WorkloadInputs& in,
                 const Tracer& tracer) {
  Profiled p;
  p.step_ms.reserve(spec.profiling_runs + 1);
  std::vector<WindowRecord> windows;
  windows.reserve(spec.profiling_runs * kN);
  {
    auto span = tracer.scope("core.collect_windows");
    for (std::size_t r = 0; r < spec.profiling_runs; ++r) {
      const std::uint64_t t0 = now_ns();
      std::vector<WindowRecord> part = s.profiler->collect_windows(1, in.profiling_seed_base + r);
      windows.insert(windows.end(), std::make_move_iterator(part.begin()),
                     std::make_move_iterator(part.end()));
      p.step_ms.push_back(ns_to_ms(now_ns() - t0));
    }
  }
  const std::uint64_t t0 = now_ns();
  p.attack = std::make_unique<RevealAttack>(spec.attack_config);
  {
    auto span = tracer.scope("core.train");
    p.attack->train(windows);
  }
  p.step_ms.push_back(ns_to_ms(now_ns() - t0));
  return p;
}

/// Runs the attack and a search capped at kAdmitTries on one candidate
/// victim, and writes its artifacts if the search lands in a band with quota
/// left. Returns whether the capped search recovered the candidate.
bool admit_victim(Setup& s, const WorkloadSpec& spec, const RevealAttack& attack,
                  const e2ebench::VictimSpec& v, const std::string& dir,
                  std::vector<std::size_t>& filled, const Tracer& tracer,
                  std::uint64_t item) {
  const seal::Context& ctx = *s.context;
  seal::StandardRandomGenerator rng(v.key_seed);
  std::unique_ptr<seal::KeyGenerator> keygen;
  {
    auto span = tracer.scope("seal.keygen", item);
    keygen = std::make_unique<seal::KeyGenerator>(ctx, rng);
  }
  FullCapture cap;
  {
    auto span = tracer.scope("core.capture", item);
    s.target->capture_into(v.capture_seed, cap);
  }
  if (cap.segments.size() != kN) return false;
  seal::Ciphertext ct;
  {
    auto span = tracer.scope("seal.encrypt", item);
    const seal::Encryptor encryptor(ctx, keygen->public_key());
    seal::EncryptionWitness witness;
    seal::sample_poly_ternary(witness.u, rng, ctx);
    (void)seal::sample_error_poly(rng, ctx, &witness.e1);
    witness.e2 = cap.noise;
    ct = encryptor.encrypt_with_witness(seal::Plaintext(v.message), witness);
  }
  const RobustCaptureResult res =
      robust_attack(attack, cap.trace, spec.target_config.segmentation, tracer, item);
  if (res.guesses.size() != kN) return false;
  s.aligned += kN;
  for (std::size_t i = 0; i < kN; ++i) s.value_correct += res.guesses[i].value == cap.noise[i];
  ResidualSearchConfig rs;
  rs.max_tries = kAdmitTries;
  ResidualSearchResult search;
  {
    auto span = tracer.scope("core.residual_search", item);
    search = residual_search(ctx, keygen->public_key(), ct, res.guesses, rs);
  }
  if (!search.found) return false;
  std::size_t band = 0;
  while (band < std::size(kVictimBands) && search.tried > kVictimBands[band].hi) ++band;
  if (band == std::size(kVictimBands) || search.tried < kVictimBands[band].lo ||
      filled[band] >= kVictimBands[band].quota)
    return true;
  ++filled[band];

  Victim victim;
  victim.dir = dir;
  victim.message = v.message;
  victim.e2 = cap.noise;
  victim.admit_tries = search.tried;
  {
    auto span = tracer.scope("seal.io", item);
    std::filesystem::create_directories(dir);
    seal::save_public_key_file(keygen->public_key(), dir + "/pk.bin");
    seal::save_ciphertext_file(ct, dir + "/ct.bin");
    sca::TraceSet traces;
    sca::Trace t;
    t.samples = cap.trace;
    traces.add(std::move(t));
    traces.save(dir + "/trace.bin");
  }
  for (const char* f : {"/pk.bin", "/ct.bin", "/trace.bin"})
    victim.file_bytes += std::filesystem::file_size(dir + f);
  s.victims.push_back(std::move(victim));
  return true;
}

Setup make_setup(const WorkloadSpec& spec, const e2ebench::Options& opt,
                 const e2ebench::WorkloadInputs& in, const Tracer& tracer,
                 std::size_t repeat) {
  Setup s;
  auto root = tracer.scope("bench.setup", repeat);
  s.capture = std::make_unique<FullCapture>();
  s.profiler = std::make_unique<SamplerCampaign>(spec.profile_config);
  s.target = std::make_unique<SamplerCampaign>(spec.target_config);
  FullCapture warm;
  s.target->capture_into(in.warmup_seed, warm);
  if (!spec.files) return s;

  s.context = std::make_unique<seal::Context>(seal_params());
  // The victims' residual-search work is only known to an attacker with
  // templates. Set-up profiles exactly as every timed pass does (the same
  // captures, so the same templates), so the admission searches are the
  // timed searches.
  const Profiled profiled = profile(s, spec, in, tracer);
  std::vector<std::size_t> filled(std::size(kVictimBands), 0);
  const std::size_t wanted = victims_per_pass();
  for (std::uint64_t k = 0; s.victims.size() < wanted; ++k) {
    if (k == kMaxCandidates)
      throw std::runtime_error("files_recovery: victim quotas not filled after " +
                               std::to_string(k) + " candidates");
    const e2ebench::VictimSpec v = e2ebench::make_victim(opt.seed, k, kN);
    const std::string dir = opt.work_dir + "/victim_" + std::to_string(s.victims.size());
    s.recovered += admit_victim(s, spec, *profiled.attack, v, dir, filled, tracer, k);
    s.candidates = k + 1;
  }
  return s;
}

// ---------------------------------------------------------------------------
// One pass

struct Counts {
  std::uint64_t instructions = 0;
  std::uint64_t samples = 0;
  std::uint64_t fault_touched = 0;
  std::uint64_t segment_attempts = 0;
  std::uint64_t segment_failed = 0;
  std::uint64_t windows = 0;
  std::uint64_t abstained = 0;
  std::uint64_t low_confidence = 0;
  std::uint64_t estimate_calls = 0;
  std::uint64_t residual_tried = 0;
  std::uint64_t residual_found = 0;
  std::uint64_t io_bytes = 0;
  HintTally hints;
};

/// What a pass produced. Everything except the timings must repeat exactly
/// from pass to pass (the same inputs every pass).
struct PassOutputs {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t aligned = 0;
  std::size_t value_correct = 0;
  std::size_t sign_correct = 0;
  std::size_t wrong_perfect = 0;
  std::size_t messages_ok = 0;
  std::vector<double> block_bikz;
  double bikz_sim = 0.0;
  double sign_only_bikz_sim = 0.0;
  std::vector<std::vector<HintRecord>> records;  ///< per capture / victim
  std::vector<std::size_t> tries;                ///< files: per victim

  friend bool operator==(const PassOutputs&, const PassOutputs&) = default;
};

/// A pass's step times (ms). Every pass holds the same steps in the same
/// order; the steps and the remainder (`wall_ns` minus their sum) tile the
/// pass.
struct PassSteps {
  std::vector<double> profile;  ///< each profiling capture, then train
  /// Per capture / victim, its attack latency in two steps: capture_into
  /// (files_recovery: loading the files), then the robust attack and the
  /// hint routing (files_recovery: the robust attack).
  std::vector<double> acquire;
  std::vector<double> attack;
  /// Campaigns: per block, estimate(). files_recovery: per victim, its
  /// residual search and message recovery.
  std::vector<double> finish;
};

struct PassResult {
  PassOutputs out;
  Counts counts;
  PassSteps steps;
  std::uint64_t wall_ns = 0;
  std::uint64_t replay_ns = 0;  ///< traced passes: replay time inside the pass
  std::size_t root_span = 0;
  std::vector<std::string> failures;  ///< check failures found in this pass
};

void score_guesses(const std::vector<CoefficientGuess>& guesses,
                   const std::vector<std::int64_t>& truth, const HintPolicy& policy,
                   PassOutputs& o, Counts& c) {
  c.windows += guesses.size();
  for (const CoefficientGuess& g : guesses) {
    c.abstained += g.quality == GuessQuality::kAbstained;
    c.low_confidence += g.quality == GuessQuality::kLowConfidence;
  }
  // Ground-truth scoring needs window <-> coefficient alignment.
  if (guesses.size() != truth.size()) return;
  for (std::size_t i = 0; i < guesses.size(); ++i) {
    const CoefficientGuess& g = guesses[i];
    const int truth_sign = truth[i] > 0 ? 1 : (truth[i] < 0 ? -1 : 0);
    ++o.aligned;
    o.sign_correct += g.sign == truth_sign;
    o.value_correct += g.value == truth[i];
    o.wrong_perfect += routes_as_perfect(g, policy) && g.value != truth[i];
  }
}

/// Routes every guess into `estimator`; returns the records.
std::vector<HintRecord> route_all(const std::vector<CoefficientGuess>& guesses,
                                  const HintPolicy& policy, lwe::DbddEstimator& estimator,
                                  Counts& c) {
  std::vector<HintRecord> records;
  records.reserve(guesses.size());
  for (const CoefficientGuess& g : guesses) {
    records.push_back(route_guess(g, policy));
    apply_hint(estimator, records.back());
    c.hints.add(records.back());
  }
  return records;
}

/// The end of every pass: the BKZ-simulated estimate of the final block's
/// measured hints and of the same guesses reduced to their signs.
void final_estimates(const lwe::DbddEstimator& last_block,
                     const std::vector<std::vector<CoefficientGuess>>& last_guesses,
                     const HintPolicy& policy, const Tracer& tracer, PassOutputs& o) {
  {
    auto span = tracer.scope("lattice.estimate_simulated");
    o.bikz_sim = last_block.estimate_simulated().beta;
  }
  lwe::DbddEstimator sign_only(block_params());
  {
    auto span = tracer.scope("core.route");
    for (const auto& g : last_guesses)
      (void)integrate_sign_only_hints(sign_only, g, policy.sigma, policy.max_deviation);
  }
  auto span = tracer.scope("lattice.estimate_simulated");
  o.sign_only_bikz_sim = sign_only.estimate_simulated().beta;
}

PassResult campaign_pass(Setup& s, const WorkloadSpec& spec,
                         const e2ebench::WorkloadInputs& in, const Tracer& tracer,
                         CaptureReplayer* replayer, std::size_t pass,
                         std::unique_ptr<RevealAttack>* keep_attack) {
  PassResult r;
  const HintPolicy policy;
  const std::uint64_t pass_begin = now_ns();
  auto root = tracer.scope("bench.pass", pass);
  r.root_span = root.index();
  Profiled profiled = profile(s, spec, in, tracer);
  r.steps.profile = std::move(profiled.step_ms);
  const RevealAttack& attack = *profiled.attack;

  PassOutputs& o = r.out;
  Counts& c = r.counts;
  FullCapture& cap = *s.capture;
  lwe::DbddEstimator estimator(block_params());
  std::vector<std::vector<CoefficientGuess>> block_guesses;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    auto block_span = tracer.scope("bench.block", pass * 1000 + b);
    estimator = lwe::DbddEstimator(block_params());
    block_guesses.clear();
    for (std::size_t k = 0; k < kBlockCaptures; ++k) {
      const std::size_t index = b * kBlockCaptures + k;
      const std::uint64_t seed = in.attack_seeds[index];
      const std::uint64_t item = pass * 100000 + index;
      const std::uint64_t t0 = now_ns();
      std::uint64_t captured = 0;
      std::size_t capture_span = 0;
      RobustCaptureResult res;
      {
        auto item_span = tracer.scope("bench.capture", item);
        {
          auto span = tracer.scope("core.capture", item);
          capture_span = span.index();
          s.target->capture_into(seed, cap);
        }
        captured = now_ns();
        res = robust_attack(attack, cap.trace, spec.target_config.segmentation, tracer, item);
        std::vector<HintRecord> records;
        if (res.segmentation.status != sca::SegmentationStatus::kFailed) {
          auto span = tracer.scope("core.route", item);
          records = route_all(res.guesses, policy, estimator, c);
        }
        o.records.push_back(std::move(records));
      }
      r.steps.acquire.push_back(ns_to_ms(captured - t0));
      r.steps.attack.push_back(ns_to_ms(now_ns() - captured));

      ++o.attempted;
      c.segment_attempts += res.segmentation.attempts;
      if (res.segmentation.status == sca::SegmentationStatus::kFailed ||
          res.guesses.size() != kN) {
        ++o.failed;
        ++c.segment_failed;
      } else {
        block_guesses.push_back(res.guesses);
      }
      score_guesses(res.guesses, cap.noise, policy, o, c);

      if (replayer != nullptr) {
        const std::uint64_t replay_begin = now_ns();
        auto replay_span = tracer.scope("bench.replay", item);
        const ReplayTimes t = replayer->replay(seed);
        add_capture_children(*tracer.log(), capture_span, t, item);
        c.instructions += t.instructions;
        c.samples += t.samples;
        c.fault_touched += t.fault_touched;
        if (replayer->trace().size() != cap.trace.size() ||
            std::memcmp(replayer->trace().data(), cap.trace.data(),
                        cap.trace.size() * sizeof(double)) != 0)
          r.failures.push_back("replayed trace of capture seed " + std::to_string(seed) +
                               " differs from capture_into's trace");
        r.replay_ns += now_ns() - replay_begin;
      }
    }
    const std::uint64_t t0 = now_ns();
    {
      auto span = tracer.scope("lwe.estimate");
      o.block_bikz.push_back(estimator.estimate().beta);
    }
    ++c.estimate_calls;
    r.steps.finish.push_back(ns_to_ms(now_ns() - t0));
  }
  final_estimates(estimator, block_guesses, policy, tracer, o);
  r.wall_ns = now_ns() - pass_begin;
  if (keep_attack != nullptr) *keep_attack = std::move(profiled.attack);
  return r;
}

/// One pass: the attacker profiles once, then attacks every victim from its
/// files. Profiling is the pass's only capture-plane work.
PassResult files_pass(Setup& s, const WorkloadSpec& spec, const e2ebench::WorkloadInputs& in,
                      const Tracer& tracer, std::size_t pass) {
  PassResult r;
  const HintPolicy policy;
  const std::uint64_t pass_begin = now_ns();
  auto root = tracer.scope("bench.pass", pass);
  r.root_span = root.index();
  Profiled profiled = profile(s, spec, in, tracer);
  r.steps.profile = std::move(profiled.step_ms);
  const RevealAttack& attack = *profiled.attack;

  PassOutputs& o = r.out;
  Counts& c = r.counts;
  const seal::Context& ctx = *s.context;
  ResidualSearchConfig rs;
  rs.max_tries = kSearchBudget;
  lwe::DbddEstimator estimator(block_params());
  for (std::size_t v = 0; v < s.victims.size(); ++v) {
    const Victim& victim = s.victims[v];
    const std::uint64_t item = pass * 100000 + v;
    if (v % kBlockCaptures == 0) estimator = lwe::DbddEstimator(block_params());
    const std::uint64_t t0 = now_ns();
    std::uint64_t loaded = 0;
    std::uint64_t attacked = 0;
    RobustCaptureResult res;
    ResidualSearchResult search;
    std::optional<seal::Plaintext> plain;
    {
      auto item_span = tracer.scope("bench.victim", item);
      std::optional<seal::PublicKey> pk;
      std::optional<seal::Ciphertext> ct;
      sca::TraceSet traces;
      {
        auto span = tracer.scope("seal.io", item);
        pk = seal::load_public_key_file(victim.dir + "/pk.bin");
        ct = seal::load_ciphertext_file(victim.dir + "/ct.bin");
        traces = sca::TraceSet::load(victim.dir + "/trace.bin");
      }
      loaded = now_ns();
      res = robust_attack(attack, traces[0].samples, spec.target_config.segmentation, tracer,
                          item);
      attacked = now_ns();
      {
        auto span = tracer.scope("core.residual_search", item);
        search = residual_search(ctx, *pk, *ct, res.guesses, rs);
      }
      if (search.found) {
        auto span = tracer.scope("core.recover_message", item);
        plain = recover_message(ctx, *pk, *ct, search.e2);
      }
    }
    r.steps.acquire.push_back(ns_to_ms(loaded - t0));
    r.steps.attack.push_back(ns_to_ms(attacked - loaded));
    r.steps.finish.push_back(ns_to_ms(now_ns() - attacked));

    ++o.attempted;
    c.io_bytes += victim.file_bytes;
    c.segment_attempts += res.segmentation.attempts;
    c.segment_failed += res.guesses.size() != kN;
    c.residual_tried += search.tried;
    c.residual_found += search.found;
    o.tries.push_back(search.tried);
    bool ok = plain.has_value() && plain->coeff_count() >= victim.message.size();
    for (std::size_t i = 0; ok && i < victim.message.size(); ++i)
      ok = (*plain)[i] == victim.message[i];
    o.messages_ok += ok;
    o.failed += !ok;
    score_guesses(res.guesses, victim.e2, policy, o, c);

    {
      auto span = tracer.scope("core.route", item);
      o.records.push_back(route_all(res.guesses, policy, estimator, c));
    }
    if ((v + 1) % kBlockCaptures == 0) {
      auto span = tracer.scope("lwe.estimate");
      o.block_bikz.push_back(estimator.estimate().beta);
      ++c.estimate_calls;
    }
  }
  r.wall_ns = now_ns() - pass_begin;
  return r;
}

/// files_recovery's residual_bikz_sim: the BKZ-simulated estimate of the
/// final block's hints, computed once after the timed passes (the files
/// attack itself ends at the recovered message).
double files_bikz_sim(const PassOutputs& o) {
  lwe::DbddEstimator estimator(block_params());
  for (std::size_t v = o.records.size() - kBlockCaptures; v < o.records.size(); ++v) {
    for (const HintRecord& h : o.records[v]) apply_hint(estimator, h);
  }
  return estimator.estimate_simulated().beta;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double median(std::vector<double> v) { return e2ebench::percentile(std::move(v), 50.0); }

std::uint64_t peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct RunSummary {
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  std::vector<double> setup_s;
  double bikz_sim = 0.0;
};

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

std::vector<Metric> end_to_end_metrics(const WorkloadSpec& spec, const RunSummary& run,
                                       const Setup& setup, double attack_p, double recovery_p) {
  std::vector<std::vector<double>> profile, acquire, attack, finish;
  double rest_ms = std::numeric_limits<double>::infinity();
  std::size_t attempted = 0, failed = 0;
  for (const PassResult& p : run.untraced) {
    profile.push_back(p.steps.profile);
    acquire.push_back(p.steps.acquire);
    attack.push_back(p.steps.attack);
    finish.push_back(p.steps.finish);
    const double steps_ms = sum(p.steps.profile) + sum(p.steps.acquire) + sum(p.steps.attack) +
                            sum(p.steps.finish);
    rest_ms = std::min(rest_ms, std::max(0.0, ns_to_ms(p.wall_ns) - steps_ms));
    attempted += p.out.attempted;
    failed += p.out.failed;
  }
  // Each step's time is its minimum over the passes; see "Timing" above.
  const std::vector<double> profile_ms = e2ebench::item_minimums(profile);
  std::vector<double> attack_ms = e2ebench::item_minimums(attack);
  const std::vector<double> acquire_ms = e2ebench::item_minimums(acquire);
  for (std::size_t i = 0; i < attack_ms.size(); ++i) attack_ms[i] += acquire_ms[i];
  const std::vector<double> finish_ms = e2ebench::item_minimums(finish);
  std::vector<double> recovery_ms;
  if (spec.files) {
    for (std::size_t v = 0; v < attack_ms.size(); ++v)
      recovery_ms.push_back(attack_ms[v] + finish_ms[v]);
  } else {
    for (std::size_t b = 0; b < finish_ms.size(); ++b) {
      double block = finish_ms[b];
      for (std::size_t k = 0; k < kBlockCaptures; ++k) block += attack_ms[b * kBlockCaptures + k];
      recovery_ms.push_back(block);
    }
  }
  const double wall_ms = sum(profile_ms) + sum(attack_ms) + sum(finish_ms) + rest_ms;
  const PassOutputs& o = run.untraced.front().out;
  // files_recovery's victims are admitted by their search work, so its
  // accuracy is scored on every candidate the admission scan attacked: an
  // attack-quality change shows there and not through the admission.
  const double accuracy =
      spec.files
          ? ratio(static_cast<double>(setup.value_correct), static_cast<double>(setup.aligned))
          : ratio(static_cast<double>(o.value_correct), static_cast<double>(o.aligned));
  return {
      {"wall_s", wall_ms / 1e3, "s"},
      {"setup_s", median(run.setup_s), "s"},
      {"peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0, "MB"},
      {"profiled_captures_per_s",
       static_cast<double>(spec.profiling_runs) / (sum(profile_ms) / 1e3), "1/s"},
      {"attacked_captures_per_s",
       static_cast<double>(attack_ms.size()) / (sum(attack_ms) / 1e3), "1/s"},
      {"attack_latency_ms.p50", e2ebench::percentile(attack_ms, 50.0), "ms"},
      {"attack_latency_ms.tail", e2ebench::percentile(attack_ms, attack_p), "ms"},
      {"recovery_latency_ms.p50", e2ebench::percentile(recovery_ms, 50.0), "ms"},
      {"recovery_latency_ms.tail", e2ebench::percentile(recovery_ms, recovery_p), "ms"},
      {"ok_ratio", ratio(static_cast<double>(attempted - failed), static_cast<double>(attempted)),
       "ratio"},
      {"value_accuracy", accuracy, "ratio"},
      {"residual_bikz", median(o.block_bikz), "bikz"},
      {"residual_bikz_sim", run.bikz_sim, "bikz"},
  };
}

std::vector<Metric> per_layer_metrics(const RunSummary& run, const SpanLog& log) {
  std::vector<std::size_t> pass_roots, setup_roots;
  std::uint64_t traced_wall = 0;
  Counts c;
  for (const PassResult& p : run.traced) {
    pass_roots.push_back(p.root_span);
    traced_wall += p.wall_ns - p.replay_ns;
    const Counts& pc = p.counts;
    c.instructions += pc.instructions;
    c.samples += pc.samples;
    c.fault_touched += pc.fault_touched;
    c.segment_attempts += pc.segment_attempts;
    c.segment_failed += pc.segment_failed;
    c.windows += pc.windows;
    c.abstained += pc.abstained;
    c.low_confidence += pc.low_confidence;
    c.estimate_calls += pc.estimate_calls;
    c.residual_tried += pc.residual_tried;
    c.residual_found += pc.residual_found;
    c.io_bytes += pc.io_bytes;
    c.hints.merge(pc.hints);
  }
  for (std::size_t i = 0; i < log.spans().size(); ++i) {
    if (log.spans()[i].name == "bench.setup") setup_roots.push_back(i);
  }
  // Layer times are per pass, except set-up-only layers (per set-up).
  auto per = [&](const std::vector<std::size_t>& roots, std::size_t n) {
    const auto totals = e2ebench::layer_totals_ns(log.spans(), roots);
    return [totals, n](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : ns_to_ms(it->second) / static_cast<double>(n);
    };
  };
  const auto per_pass = per(pass_roots, run.traced.size());
  const auto per_setup = per(setup_roots, setup_roots.size());
  const double passes = static_cast<double>(run.traced.size());
  auto count = [&](std::uint64_t v) { return static_cast<double>(v) / passes; };

  std::vector<double> traced_walls, untraced_walls;
  for (const PassResult& p : run.traced) traced_walls.push_back(ns_to_s(p.wall_ns - p.replay_ns));
  for (const PassResult& p : run.untraced) untraced_walls.push_back(ns_to_s(p.wall_ns));
  const double capture = per_pass("core.capture");
  return {
      {"riscv.iss_ms", per_pass("riscv.iss"), "ms"},
      {"riscv.instructions", count(c.instructions), "count"},
      {"power.recorder_ms", per_pass("power.recorder"), "ms"},
      {"power.noise_ms", per_pass("power.noise"), "ms"},
      {"power.samples", count(c.samples), "count"},
      {"power.faults_ms", per_pass("power.faults"), "ms"},
      {"power.fault_touched_samples", count(c.fault_touched), "count"},
      {"sca.segment_capture_ms", per_pass("sca.segment_capture"), "ms"},
      {"core.capture_ms", capture, "ms"},
      {"riscv.iss_share", ratio(per_pass("riscv.iss"), capture), "ratio"},
      {"power.recorder_share", ratio(per_pass("power.recorder"), capture), "ratio"},
      {"power.noise_share", ratio(per_pass("power.noise"), capture), "ratio"},
      {"sca.segment_robust_ms", per_pass("sca.segment_robust"), "ms"},
      {"sca.segment_attempts", count(c.segment_attempts), "count"},
      {"sca.segment_failed", count(c.segment_failed), "count"},
      {"sca.classify_ms", per_pass("sca.classify"), "ms"},
      {"sca.windows", count(c.windows), "count"},
      {"sca.abstained", count(c.abstained), "count"},
      {"sca.low_confidence", count(c.low_confidence), "count"},
      {"core.collect_windows_ms", per_pass("core.collect_windows"), "ms"},
      {"core.train_ms", per_pass("core.train"), "ms"},
      {"core.route_ms", per_pass("core.route"), "ms"},
      {"core.hints.perfect", count(c.hints.perfect), "count"},
      {"core.hints.approximate", count(c.hints.approximate), "count"},
      {"core.hints.sign_only", count(c.hints.sign_only), "count"},
      {"core.hints.skipped", count(c.hints.skipped), "count"},
      {"lwe.estimate_ms", per_pass("lwe.estimate"), "ms"},
      {"lwe.estimate_calls", count(c.estimate_calls), "count"},
      {"lattice.estimate_simulated_ms", per_pass("lattice.estimate_simulated"), "ms"},
      {"core.residual_search_ms", per_pass("core.residual_search"), "ms"},
      {"core.residual_tried", count(c.residual_tried), "count"},
      {"core.residual_found", count(c.residual_found), "count"},
      {"core.recover_message_ms", per_pass("core.recover_message"), "ms"},
      {"seal.io_ms", per_pass("seal.io"), "ms"},
      {"seal.io_bytes", count(c.io_bytes), "bytes"},
      {"seal.keygen_ms", per_setup("seal.keygen"), "ms"},
      {"seal.encrypt_ms", per_setup("seal.encrypt"), "ms"},
      {"trace.coverage_ratio",
       e2ebench::coverage_ratio(log.spans(), pass_roots, traced_wall),
       "ratio"},
      {"trace.overhead_ratio", median(traced_walls) / median(untraced_walls) - 1.0, "ratio"},
  };
}

// ---------------------------------------------------------------------------
// Output checks

/// The per-capture loop's hint records must equal the campaign engine's on a
/// prefix of the same seeds.
void check_against_campaign_runner(const RevealAttack& attack, const WorkloadSpec& spec,
                                   const e2ebench::WorkloadInputs& in,
                                   const PassOutputs& first, std::vector<std::string>& failures) {
  const std::vector<std::uint64_t> prefix(in.attack_seeds.begin(),
                                          in.attack_seeds.begin() + kPrefixCheck);
  CampaignRunner runner(0);
  const RecoveryCampaignResult ref = runner.run_recovery_campaign(
      attack, spec.target_config, prefix, HintPolicy{}, block_params());
  for (std::size_t i = 0; i < kPrefixCheck; ++i) {
    if (ref.hints[i] != first.records[i])
      failures.push_back("hint records of capture " + std::to_string(i) +
                         " differ from CampaignRunner::run_recovery_campaign");
  }
}

void check_outputs(const WorkloadSpec& spec, const RunSummary& run,
                   std::vector<std::string>& failures) {
  const PassOutputs& first = run.untraced.front().out;
  for (const auto* passes : {&run.untraced, &run.traced}) {
    for (const PassResult& p : *passes) {
      if (!(p.out == first)) {
        failures.push_back("pass outputs differ between passes over the same inputs");
        break;
      }
      failures.insert(failures.end(), p.failures.begin(), p.failures.end());
    }
  }
  if (!spec.files && first.wrong_perfect != 0)
    failures.push_back(std::to_string(first.wrong_perfect) + " wrong perfect hints");
  if (spec.name == "clean_campaign" && first.sign_correct != first.aligned)
    failures.push_back("sign accuracy " + std::to_string(first.sign_correct) + "/" +
                       std::to_string(first.aligned) + " is not 100%");
  if (spec.files && first.messages_ok != first.attempted)
    failures.push_back(std::to_string(first.attempted - first.messages_ok) +
                       " victims' recovered messages do not match");
}

int run(const e2ebench::Options& opt) {
  const e2ebench::WorkloadInputs in = e2ebench::make_inputs(opt.seed, kAttackCaptures);
  const WorkloadSpec spec = make_spec(opt.workload, in);
  if (spec.files && opt.work_dir.empty())
    throw e2ebench::UsageError("files_recovery needs --work-dir");

  const double attack_p = e2ebench::tail_percentile(attack_latency_samples(spec));
  const double recovery_p = e2ebench::tail_percentile(recovery_latency_samples(spec));

  SpanLog log;
  const Tracer off;
  const Tracer on(&log);
  const Tracer& setup_tracer = opt.trace ? on : off;

  RunSummary run;
  auto timed_setup = [&]() {
    const std::uint64_t t0 = now_ns();
    Setup s = make_setup(spec, opt, in, setup_tracer, run.setup_s.size());
    run.setup_s.push_back(ns_to_s(now_ns() - t0));
    return s;
  };
  // The passes use the first set-up. The others are timed and discarded;
  // they are spread evenly over the run (see kSetupShare).
  Setup setup = timed_setup();
  const std::uint64_t window_ns = opt.seconds * 1000000000ULL;
  const std::size_t setups = std::clamp<std::size_t>(
      static_cast<std::size_t>(kSetupShare * static_cast<double>(window_ns) /
                               (run.setup_s[0] * 1e9)),
      kMinSetups, kMaxSetups);
  std::vector<std::string> failures;
  auto extra_setup = [&]() {
    const Setup s = timed_setup();
    bool same = s.victims.size() == setup.victims.size();
    for (std::size_t v = 0; same && v < s.victims.size(); ++v)
      same = s.victims[v].dir == setup.victims[v].dir &&
             s.victims[v].admit_tries == setup.victims[v].admit_tries;
    if (!same) failures.push_back("set-ups of the same inputs admitted different victims");
  };
  std::unique_ptr<CaptureReplayer> replayer;
  if (opt.trace && !spec.files)
    replayer = std::make_unique<CaptureReplayer>(spec.target_config, setup.target->program());

  // Every pass profiles; the campaigns keep the last pass's attack for the
  // cross-check below.
  std::unique_ptr<RevealAttack> attack;
  auto pass = [&](bool traced) {
    const std::size_t index = run.untraced.size() + run.traced.size();
    const Tracer& tracer = traced ? on : off;
    PassResult r = spec.files ? files_pass(setup, spec, in, tracer, index)
                              : campaign_pass(setup, spec, in, tracer,
                                              traced ? replayer.get() : nullptr, index,
                                              &attack);
    (traced ? run.traced : run.untraced).push_back(std::move(r));
  };
  // A traced run alternates untraced and traced passes, so the tracing
  // overhead is measured against untraced passes of the same run.
  // The passes run for --seconds; the set-ups between them do not count.
  std::uint64_t passes_ns = 0;
  do {
    const std::uint64_t t0 = now_ns();
    pass(false);
    if (opt.trace) pass(true);
    passes_ns += now_ns() - t0;
    while (run.setup_s.size() < setups && passes_ns >= window_ns / setups * run.setup_s.size())
      extra_setup();
  } while (passes_ns < window_ns);
  while (run.setup_s.size() < setups) extra_setup();
  // The tail rule binds the untimed-latency run only; a traced run reports
  // per-layer totals per pass and needs two passes of each kind.
  const std::size_t timed_passes = opt.trace ? run.traced.size() : run.untraced.size();
  const std::size_t min_passes = opt.trace ? 2 : kMinPasses;
  if (timed_passes < min_passes)
    throw std::runtime_error("run too short: " + std::to_string(timed_passes) +
                             " passes in " + std::to_string(opt.seconds) + " s, need " +
                             std::to_string(min_passes));

  if (!spec.files) check_against_campaign_runner(*attack, spec, in, run.untraced.front().out,
                                                 failures);
  check_outputs(spec, run, failures);
  run.bikz_sim = spec.files ? files_bikz_sim(run.untraced.front().out)
                            : run.untraced.front().out.bikz_sim;
  if (spec.files) {
    for (std::size_t v = 0; v < setup.victims.size(); ++v) {
      if (run.untraced.front().out.tries[v] != setup.victims[v].admit_tries)
        failures.push_back("victim " + std::to_string(v) +
                           ": timed search tried a different number of candidates than "
                           "its admission search");
    }
  }

  if (opt.trace && !opt.trace_file.empty()) {
    const std::filesystem::path path(opt.trace_file);
    if (path.has_parent_path()) std::filesystem::create_directories(path.parent_path());
    std::ofstream out(path);
    e2ebench::write_chrome_trace(out, log.spans());
    if (!out) failures.push_back("cannot write trace file " + opt.trace_file);
  }

  const std::vector<Metric> metrics = opt.trace
                                          ? per_layer_metrics(run, log)
                                          : end_to_end_metrics(spec, run, setup, attack_p,
                                                               recovery_p);
  std::size_t attempted = 0, failed = 0;
  for (const auto* passes : {&run.untraced, &run.traced}) {
    for (const PassResult& p : *passes) {
      attempted += p.out.attempted;
      failed += p.out.failed;
    }
  }

  std::ostringstream info;
  info << "{\"workload\":\"" << spec.name << "\",\"seed\":" << opt.seed
       << ",\"seconds\":" << opt.seconds << ",\"trace\":" << (opt.trace ? 1 : 0)
       << ",\"build_type\":" << e2ebench::json_string(E2EBENCH_BUILD_TYPE)
       << ",\"cxx_flags\":" << e2ebench::json_string(E2EBENCH_CXX_FLAGS)
       << ",\"git_commit\":" << e2ebench::json_string(E2EBENCH_GIT_COMMIT)
       << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
       << ",\"passes\":" << timed_passes << ",\"setups\":" << run.setup_s.size()
       << ",\"attack_latency_samples\":" << attack_latency_samples(spec)
       << ",\"attack_latency_tail_percentile\":" << attack_p
       << ",\"recovery_latency_samples\":" << recovery_latency_samples(spec)
       << ",\"recovery_latency_tail_percentile\":" << recovery_p;
  if (spec.files) {
    info << ",\"victim_candidates\":" << setup.candidates
         << ",\"candidates_recovered\":" << setup.recovered;
  } else {
    info << ",\"sign_only_bikz_sim\":"
         << json_number(run.untraced.front().out.sign_only_bikz_sim);
  }
  if (opt.trace) info << ",\"trace_file\":" << e2ebench::json_string(opt.trace_file);
  info << "}";
  std::cout << "e2ebench-info " << info.str() << "\n";

  for (const std::string& f : failures) std::cerr << "CHECK FAILED: " << f << "\n";
  std::cout << "{\"correct\":" << (failures.empty() ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? "," : "") << "\"" << metrics[i].name << "\":{\"value\":"
              << json_number(metrics[i].value) << ",\"unit\":\"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef E2EBENCH_SANITIZED
  std::cerr << "e2ebench: refusing to time a sanitizer build\n";
  return 3;
#endif
  if (std::strstr(E2EBENCH_CXX_FLAGS, "-fsanitize") != nullptr) {
    std::cerr << "e2ebench: refusing to time a sanitizer build (" << E2EBENCH_CXX_FLAGS
              << ")\n";
    return 3;
  }
  e2ebench::Options opt;
  try {
    opt = e2ebench::parse_args(std::vector<std::string>(argv + 1, argv + argc));
  } catch (const e2ebench::UsageError& e) {
    std::cerr << "e2ebench: " << e.what() << "\n" << e2ebench::usage();
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 1;
  }
}
