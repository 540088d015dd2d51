// Serial/parallel equivalence suite: the campaign engine's central promise
// is that num_workers is a pure throughput knob — for the same seeds, every
// worker count produces *byte-identical* results. This suite runs the full
// degradation-aware campaign (capture -> robust segmentation -> sign/value
// classification -> hint routing -> DBDD estimate) for five seed bases at
// num_workers in {0, 1, 4} and asserts bit-equality of every RecoveryReport
// field (doubles compared with ==, not tolerances), every CoefficientGuess,
// and every routed HintRecord. It also pins the two pillars the engine
// stands on: capture history-independence (per-worker campaign replicas are
// sound) and collect_windows parallel/serial identity; and the driver's
// contract around them: the two rejections before the first capture, and
// the ground truth that travels with each capture.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/acquisition.hpp"
#include "core/attack.hpp"
#include "core/campaign_runner.hpp"
#include "core/hints.hpp"
#include "lwe/dbdd.hpp"
#include "sca/report.hpp"

using namespace reveal;
using namespace reveal::core;

namespace {

CampaignConfig degraded_config() {
  CampaignConfig cfg;
  cfg.n = 64;
  // Mild acquisition faults so the campaign exercises the degraded routing
  // paths (low-confidence, sign-only, skipped) — equivalence must hold for
  // the full policy surface, not just the all-perfect clean case.
  cfg.faults.jitter_sigma = 0.4;
  cfg.faults.dropout_rate = 0.02;
  cfg.faults.glitch_count = 2;
  return cfg;
}

lwe::DbddParams paper_params() {
  lwe::DbddParams params;
  params.secret_dim = 1024;
  params.error_dim = 1024;
  params.q = 132120577.0;
  params.secret_variance = 3.2 * 3.2;
  params.error_variance = 3.2 * 3.2;
  return params;
}

AttackConfig gated_attack_config() {
  AttackConfig acfg;
  acfg.abstain_margin = 0.30;
  acfg.low_confidence_margin = 0.45;
  acfg.value_commit_threshold = 0.05;
  acfg.sign_fit_threshold = 2.5;
  acfg.value_fit_threshold = 4.0;
  return acfg;
}

void expect_guesses_identical(const CoefficientGuess& a, const CoefficientGuess& b) {
  EXPECT_EQ(a.sign, b.sign);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.support, b.support);
  EXPECT_EQ(a.posterior, b.posterior);  // vector<double> ==: bit-equal
  EXPECT_EQ(a.quality, b.quality);
  EXPECT_EQ(a.sign_trusted, b.sign_trusted);
  EXPECT_EQ(a.sign_margin, b.sign_margin);
}

void expect_reports_identical(const sca::RecoveryReport& a, const sca::RecoveryReport& b) {
  EXPECT_EQ(a.expected_windows, b.expected_windows);
  EXPECT_EQ(a.recovered_windows, b.recovered_windows);
  EXPECT_EQ(a.segmentation_status, b.segmentation_status);
  EXPECT_EQ(a.segmentation_attempts, b.segmentation_attempts);
  EXPECT_EQ(a.burst_consistency, b.burst_consistency);  // bit-equal
  EXPECT_EQ(a.ok_guesses, b.ok_guesses);
  EXPECT_EQ(a.low_confidence_guesses, b.low_confidence_guesses);
  EXPECT_EQ(a.abstained_guesses, b.abstained_guesses);
  EXPECT_EQ(a.perfect_hints, b.perfect_hints);
  EXPECT_EQ(a.approximate_hints, b.approximate_hints);
  EXPECT_EQ(a.sign_only_hints, b.sign_only_hints);
  EXPECT_EQ(a.dropped_hints, b.dropped_hints);
  EXPECT_EQ(a.bikz, b.bikz);  // bit-equal
  EXPECT_EQ(a.bits, b.bits);  // bit-equal
}

void expect_results_identical(const RecoveryCampaignResult& a,
                              const RecoveryCampaignResult& b) {
  ASSERT_EQ(a.captures.size(), b.captures.size());
  for (std::size_t i = 0; i < a.captures.size(); ++i) {
    const auto& sa = a.captures[i].segmentation;
    const auto& sb = b.captures[i].segmentation;
    EXPECT_EQ(sa.status, sb.status);
    EXPECT_EQ(sa.attempts, sb.attempts);
    EXPECT_EQ(sa.burst_consistency, sb.burst_consistency);
    EXPECT_EQ(sa.window_quality, sb.window_quality);
    ASSERT_EQ(a.captures[i].guesses.size(), b.captures[i].guesses.size());
    for (std::size_t g = 0; g < a.captures[i].guesses.size(); ++g) {
      expect_guesses_identical(a.captures[i].guesses[g], b.captures[i].guesses[g]);
    }
  }
  EXPECT_EQ(a.hints, b.hints);  // HintRecord == is defaulted: kind + variance bits
  EXPECT_EQ(a.hint_totals.perfect, b.hint_totals.perfect);
  EXPECT_EQ(a.hint_totals.approximate, b.hint_totals.approximate);
  EXPECT_EQ(a.hint_totals.sign_only, b.hint_totals.sign_only);
  EXPECT_EQ(a.hint_totals.skipped, b.hint_totals.skipped);
  EXPECT_EQ(a.hint_totals.mean_residual_variance, b.hint_totals.mean_residual_variance);
  expect_reports_identical(a.report, b.report);
}

// Trains one gated attack for the whole suite (profiling is clean and
// deterministic; re-training per test would just repeat the same work).
class CampaignEquivalence : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CampaignConfig clean;
    clean.n = 64;
    clean.num_workers = 0;
    SamplerCampaign profiler(clean);
    attack_ = new RevealAttack(gated_attack_config());
    attack_->train(profiler.collect_windows(120, /*seed_base=*/1));
  }
  static void TearDownTestSuite() {
    delete attack_;
    attack_ = nullptr;
  }
  static RevealAttack* attack_;
};

RevealAttack* CampaignEquivalence::attack_ = nullptr;

TEST_F(CampaignEquivalence, FullCampaignByteIdenticalAcrossWorkerCounts) {
  const CampaignConfig cfg = degraded_config();
  const lwe::DbddParams params = paper_params();
  const HintPolicy policy;
  const std::uint64_t seed_bases[] = {11, 222, 3333, 44444, 555555};
  constexpr std::size_t kCaptures = 4;

  for (const std::uint64_t base : seed_bases) {
    const std::vector<std::uint64_t> seeds = CampaignRunner::stream_seeds(base, kCaptures);

    CampaignRunner serial(0);
    const RecoveryCampaignResult reference =
        serial.run_recovery_campaign(*attack_, cfg, seeds, policy, params);
    // A campaign that recovered nothing would make the equivalence vacuous.
    ASSERT_GT(reference.report.recovered_windows, 0u) << "base=" << base;

    for (const std::size_t workers : {1u, 4u}) {
      CampaignRunner runner(workers);
      const RecoveryCampaignResult result =
          runner.run_recovery_campaign(*attack_, cfg, seeds, policy, params);
      SCOPED_TRACE("base=" + std::to_string(base) +
                   " workers=" + std::to_string(workers));
      expect_results_identical(reference, result);
    }
  }
}

TEST_F(CampaignEquivalence, DiagnosticsSinkDoesNotChangeAnyOutputByte) {
  // Identity-safety of the observability layer: the instrumented pipeline
  // instantiation (spans + counters + confusion) must produce exactly the
  // outputs of the NullSpanTracer instantiation — for the serial path and
  // for a parallel pool.
  const CampaignConfig cfg = degraded_config();
  const lwe::DbddParams params = paper_params();
  const HintPolicy policy;
  const std::vector<std::uint64_t> seeds = CampaignRunner::stream_seeds(8080, 4);

  CampaignRunner serial(0);
  const RecoveryCampaignResult reference =
      serial.run_recovery_campaign(*attack_, cfg, seeds, policy, params);
  ASSERT_GT(reference.report.recovered_windows, 0u);

  for (const std::size_t workers : {0u, 1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    CampaignRunner runner(workers);
    CampaignDiagnostics diag;
    const RecoveryCampaignResult instrumented =
        runner.run_recovery_campaign(*attack_, cfg, seeds, policy, params, &diag);
    expect_results_identical(reference, instrumented);
    // The sink actually collected: every capture was counted and timed.
    const obs::Registry& reg = diag.registry;
    EXPECT_EQ(reg.counter_value("capture.count"), seeds.size());
    EXPECT_EQ(diag.tracer.timing(obs::Stage::kCapture).count, seeds.size());
    EXPECT_EQ(diag.tracer.timing(obs::Stage::kEstimation).count, 1u);
    // The counters that duplicate report fields agree with them.
    const sca::RecoveryReport& rep = instrumented.report;
    EXPECT_EQ(reg.counter_value("classify.ok"), rep.ok_guesses);
    EXPECT_EQ(reg.counter_value("classify.low_confidence"), rep.low_confidence_guesses);
    EXPECT_EQ(reg.counter_value("classify.abstained"), rep.abstained_guesses);
    EXPECT_EQ(reg.counter_value("segmentation.attempts"), rep.segmentation_attempts);
    EXPECT_EQ(reg.counter_value("hints.perfect"), rep.perfect_hints);
    EXPECT_EQ(reg.counter_value("hints.approximate"), rep.approximate_hints);
    EXPECT_EQ(reg.counter_value("hints.sign_only"), rep.sign_only_hints);
    EXPECT_EQ(reg.counter_value("hints.skipped"), rep.dropped_hints);
  }
}

TEST_F(CampaignEquivalence, DiagnosticsCountersInvariantAcrossWorkerCounts) {
  // Counters, the gauge, the histogram (its float sum included) and the
  // confusion tally are filled in capture order on the calling thread, so
  // they are worker-count invariant. Span timings are wall-clock
  // observations and are exempt — the comparison goes through a report
  // built without the tracer.
  const CampaignConfig cfg = degraded_config();
  const lwe::DbddParams params = paper_params();
  const HintPolicy policy;
  const std::vector<std::uint64_t> seeds = CampaignRunner::stream_seeds(4321, 6);

  CampaignRunner serial(0);
  CampaignDiagnostics serial_diag;
  (void)serial.run_recovery_campaign(*attack_, cfg, seeds, policy, params, &serial_diag);
  const obs::DiagnosticsReport reference =
      obs::make_report(serial_diag.registry, nullptr, &serial_diag.confusion);
  ASSERT_FALSE(reference.counters.empty());
  ASSERT_FALSE(reference.confusion.empty());

  for (const std::size_t workers : {1u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    CampaignRunner runner(workers);
    CampaignDiagnostics diag;
    (void)runner.run_recovery_campaign(*attack_, cfg, seeds, policy, params, &diag);
    const obs::DiagnosticsReport report =
        obs::make_report(diag.registry, nullptr, &diag.confusion);
    EXPECT_EQ(report, reference)
        << "report:    " << report.to_json() << "\nreference: " << reference.to_json();
    EXPECT_EQ(diag.confusion, serial_diag.confusion);
  }
}

TEST_F(CampaignEquivalence, OneSinkAccumulatesCampaigns) {
  // The driver adds into its sink, so one sink passed to two campaigns holds
  // the sum of what two fresh sinks collect: bench_fault_tolerance reads
  // each severity level as the change in one shared sink.
  CampaignConfig clean;
  clean.n = 64;
  const CampaignConfig faulted = degraded_config();
  const lwe::DbddParams params = paper_params();
  const HintPolicy policy;
  const std::vector<std::uint64_t> seeds = CampaignRunner::stream_seeds(5150, 4);
  CampaignRunner runner(2);
  CampaignDiagnostics first;
  CampaignDiagnostics second;
  CampaignDiagnostics shared;
  (void)runner.run_recovery_campaign(*attack_, clean, seeds, policy, params, &first);
  (void)runner.run_recovery_campaign(*attack_, faulted, seeds, policy, params, &second);
  (void)runner.run_recovery_campaign(*attack_, clean, seeds, policy, params, &shared);
  (void)runner.run_recovery_campaign(*attack_, faulted, seeds, policy, params, &shared);

  const obs::Registry& sum = shared.registry;
  const std::vector<std::string> counters = sum.names(obs::MetricKind::kCounter);
  ASSERT_EQ(counters, first.registry.names(obs::MetricKind::kCounter));
  for (const std::string& name : counters) {
    EXPECT_EQ(sum.counter_value(name),
              first.registry.counter_value(name) + second.registry.counter_value(name))
        << name;
  }
  EXPECT_GT(sum.counter_value("faults.captures"), 0u);
  const std::string quality = "segmentation.window_quality";
  const obs::LatencyHistogram& h = sum.histogram_values(quality);
  const obs::LatencyHistogram& h1 = first.registry.histogram_values(quality);
  const obs::LatencyHistogram& h2 = second.registry.histogram_values(quality);
  ASSERT_EQ(h.bin_count(), h1.bin_count());
  for (std::size_t b = 0; b < h.bin_count(); ++b) EXPECT_EQ(h.count(b), h1.count(b) + h2.count(b));
  EXPECT_EQ(h.total(), h1.total() + h2.total());
  EXPECT_EQ(sum.gauge_value("capture.trace_samples.max"),
            std::max(first.registry.gauge_value("capture.trace_samples.max"),
                     second.registry.gauge_value("capture.trace_samples.max")));

  ASSERT_GT(first.confusion.total(), 0u);
  EXPECT_EQ(shared.confusion.total(), first.confusion.total() + second.confusion.total());
  for (const std::int32_t truth : shared.confusion.truths()) {
    for (const std::int32_t predicted : shared.confusion.predictions()) {
      EXPECT_EQ(shared.confusion.count(truth, predicted),
                first.confusion.count(truth, predicted) +
                    second.confusion.count(truth, predicted))
          << truth << " -> " << predicted;
    }
  }
  EXPECT_EQ(shared.tracer.timing(obs::Stage::kCapture).count, 2 * seeds.size());
}

TEST_F(CampaignEquivalence, GroundTruthCountersMatchHandRecountInEveryDriver) {
  // classify.sign_correct and hints.wrong_perfect, recounted by hand from
  // each capture's ground-truth noise over the confusion tally's aligned
  // windows. A policy that grants every confident guess perfect status
  // (huge threshold, exact zeros) makes wrong perfect hints actually occur
  // on clean captures: positive values collide within Hamming-weight
  // classes.
  HintPolicy policy;
  policy.perfect_threshold = 1e9;
  policy.zero_hint_variance = 0.0;
  const lwe::DbddParams params = paper_params();
  const std::vector<std::uint64_t> seeds = CampaignRunner::stream_seeds(9090, 6);

  struct Recount {
    std::uint64_t sign_correct = 0, sign_wrong = 0, wrong_perfect = 0, wrong_other = 0;
  };
  // Runs the campaign on `cfg`, recounts by hand and checks the counters.
  auto recount = [&](const CampaignConfig& cfg, CampaignDiagnostics& diag) {
    CampaignRunner runner(2);
    const RecoveryCampaignResult result =
        runner.run_recovery_campaign(*attack_, cfg, seeds, policy, params, &diag);
    SamplerCampaign campaign(cfg);
    Recount r;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      const std::vector<std::int64_t> noise = campaign.capture(seeds[i]).noise;
      const std::vector<CoefficientGuess>& guesses = result.captures[i].guesses;
      if (guesses.empty() || guesses.size() != noise.size()) continue;
      for (std::size_t j = 0; j < guesses.size(); ++j) {
        const int truth_sign = noise[j] > 0 ? 1 : (noise[j] < 0 ? -1 : 0);
        ++(guesses[j].sign == truth_sign ? r.sign_correct : r.sign_wrong);
        if (guesses[j].value == noise[j]) continue;
        const bool perfect =
            route_guess(guesses[j], policy).kind == HintRecord::Kind::kPerfect;
        ++(perfect ? r.wrong_perfect : r.wrong_other);
      }
    }
    EXPECT_EQ(diag.registry.counter_value("classify.sign_correct"), r.sign_correct);
    EXPECT_EQ(diag.registry.counter_value("hints.wrong_perfect"), r.wrong_perfect);
    return r;
  };

  CampaignConfig cfg;
  cfg.n = 64;
  CampaignDiagnostics clean_diag;
  const Recount clean = recount(cfg, clean_diag);
  ASSERT_GT(clean.wrong_perfect, 0u) << "the policy should let wrong perfect hints through";
  // Faulted captures add wrong signs and wrong values that route below
  // perfect, so neither counter can pass as a plain tally of aligned or
  // wrong windows.
  CampaignDiagnostics faulted_diag;
  const Recount faulted = recount(degraded_config(), faulted_diag);
  EXPECT_GT(faulted.sign_wrong, 0u);
  EXPECT_GT(faulted.wrong_other, 0u);
}

TEST_F(CampaignEquivalence, ShuffledFirmwareIsRejectedUpFront) {
  // A shuffled trace holds 2n - 1 bursts and hides which coefficient each
  // window sampled, so positional hints from it would be wrong: the driver
  // refuses the config before any capture runs.
  CampaignConfig cfg;
  cfg.n = 64;
  cfg.firmware = Firmware::kShuffled;
  CampaignRunner runner(2);
  CampaignDiagnostics diag;
  EXPECT_THROW((void)runner.run_recovery_campaign(*attack_, cfg,
                                                  CampaignRunner::stream_seeds(20260808, 4),
                                                  HintPolicy{}, paper_params(), &diag),
               std::invalid_argument);
  EXPECT_TRUE(diag.tracer.events().empty());  // no capture ran
}

TEST_F(CampaignEquivalence, CampaignWithMoreWindowsThanErrorCoordinatesIsRejectedUpFront) {
  // Every hint takes an estimator coordinate of its own, so 17 clean
  // captures x 64 windows (up to 1088 hints) do not fit the 1024 error
  // coordinates of paper_params(): the driver refuses the campaign before
  // its first capture instead of failing in the estimator replay after the
  // last one. With one coordinate per window the same campaign completes.
  constexpr std::size_t kTooMany = 17;
  CampaignConfig cfg;
  cfg.n = 64;
  const std::vector<std::uint64_t> seeds = CampaignRunner::stream_seeds(20260808, kTooMany);
  CampaignRunner runner(2);
  CampaignDiagnostics diag;
  EXPECT_THROW((void)runner.run_recovery_campaign(*attack_, cfg, seeds, HintPolicy{},
                                                  paper_params(), &diag),
               std::invalid_argument);
  EXPECT_TRUE(diag.tracer.events().empty());  // no capture ran

  lwe::DbddParams sized = paper_params();
  sized.error_dim = kTooMany * cfg.n;
  const RecoveryCampaignResult result =
      runner.run_recovery_campaign(*attack_, cfg, seeds, HintPolicy{}, sized);
  const HintSummary& h = result.hint_totals;
  EXPECT_GT(h.perfect + h.approximate + h.sign_only, 1024u);  // would not have fit
  EXPECT_LT(result.report.bikz, lwe::estimate_lwe_security(sized).beta);
}

TEST_F(CampaignEquivalence, ResultCarriesGroundTruthInCaptureOrder) {
  // The campaign keeps each capture's sampled coefficients next to its
  // guesses, in capture order.
  const CampaignConfig cfg = degraded_config();
  const std::vector<std::uint64_t> seeds = CampaignRunner::stream_seeds(20260808, 8);
  CampaignRunner runner(2);
  const RecoveryCampaignResult result =
      runner.run_recovery_campaign(*attack_, cfg, seeds, HintPolicy{}, paper_params());
  ASSERT_EQ(result.captures.size(), seeds.size());
  ASSERT_EQ(result.truth.size(), seeds.size());
  SamplerCampaign campaign(cfg);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(result.truth[i], campaign.capture(seeds[i]).noise) << i;
  }
}

TEST(CampaignEquivalenceNoFixture, CapturesAreHistoryIndependent) {
  // The engine runs per-worker SamplerCampaign replicas; that is only sound
  // if capture(seed) does not depend on what the campaign captured before.
  CampaignConfig cfg = degraded_config();
  cfg.num_workers = 0;
  SamplerCampaign reused(cfg);
  (void)reused.capture(111);
  (void)reused.capture(222);
  const FullCapture after_history = reused.capture(333);

  SamplerCampaign fresh(cfg);
  const FullCapture pristine = fresh.capture(333);
  EXPECT_EQ(after_history.trace, pristine.trace);  // bit-equal samples
  EXPECT_EQ(after_history.noise, pristine.noise);
  ASSERT_EQ(after_history.segments.size(), pristine.segments.size());
  for (std::size_t i = 0; i < pristine.segments.size(); ++i) {
    EXPECT_EQ(after_history.segments[i].window_begin, pristine.segments[i].window_begin);
    EXPECT_EQ(after_history.segments[i].window_end, pristine.segments[i].window_end);
  }
}

TEST(CampaignEquivalenceNoFixture, CollectWindowsMatchesSerialBitExactly) {
  CampaignConfig cfg = degraded_config();
  cfg.num_workers = 0;
  SamplerCampaign serial_campaign(cfg);
  std::size_t serial_rejected = 0;
  const std::vector<WindowRecord> reference =
      serial_campaign.collect_windows(30, /*seed_base=*/500, &serial_rejected);

  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    CampaignConfig pcfg = cfg;
    pcfg.num_workers = workers;
    SamplerCampaign parallel_campaign(pcfg);
    std::size_t rejected = 0;
    const std::vector<WindowRecord> got =
        parallel_campaign.collect_windows(30, /*seed_base=*/500, &rejected);
    EXPECT_EQ(rejected, serial_rejected);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(got[i].samples, reference[i].samples);  // bit-equal
      EXPECT_EQ(got[i].true_value, reference[i].true_value);
    }
  }
}

TEST(CampaignEquivalenceNoFixture, StreamSeedsMatchCounterSplit) {
  const std::vector<std::uint64_t> seeds = CampaignRunner::stream_seeds(987, 32);
  ASSERT_EQ(seeds.size(), 32u);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(seeds[i], stream_seed(987, i));
  }
}

}  // namespace
