// Checkpoint/resume byte-identity suite — the acceptance contract of
// DESIGN.md §8: an uninterrupted and a killed-and-resumed checkpointed
// campaign produce the same final RecoveryReport, hint set, and diagnostics
// JSON as the plain in-memory campaign over the same seed schedule, bit for
// bit, and a checkpoint never resumes under a different campaign.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/acquisition.hpp"
#include "core/attack.hpp"
#include "core/campaign_checkpoint.hpp"
#include "core/campaign_runner.hpp"
#include "lwe/dbdd.hpp"
#include "obs/diagnostics.hpp"
#include "temp_dir.hpp"

using namespace reveal;
using namespace reveal::core;

namespace {

constexpr std::uint64_t kBaseSeed = 20260808;
constexpr std::size_t kCaptures = 8;

CampaignConfig degraded_config() {
  CampaignConfig cfg;
  cfg.n = 64;
  // Mild faults so the degraded paths (low-confidence, sign-only, skipped,
  // per-range fault counters) are all live in the identity checks.
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

using reveal::test::temp_path;

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void expect_reports_identical(const sca::RecoveryReport& a,
                              const sca::RecoveryReport& b) {
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

/// Diagnostics comparison used throughout: spans are wall-clock (and a
/// checkpointed call times only its own batches), so the report is built
/// without a tracer on both sides and compared through its canonical JSON
/// — "byte-identical diagnostics".
std::string diag_json(const obs::Registry& registry, const sca::ConfusionMatrix& confusion) {
  return obs::make_report(registry, nullptr, &confusion).to_json();
}

// Trains one attack for the whole suite and runs the plain in-memory
// reference campaign every identity below is measured against.
class Checkpoint : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CampaignConfig clean;
    clean.n = 64;
    clean.num_workers = 0;
    SamplerCampaign profiler(clean);
    attack_ = new RevealAttack();
    attack_->train(profiler.collect_windows(120, /*seed_base=*/1));

    CampaignRunner serial(0);
    reference_diag_ = new CampaignDiagnostics();
    reference_ = new RecoveryCampaignResult(serial.run_recovery_campaign(
        *attack_, degraded_config(), CampaignRunner::stream_seeds(kBaseSeed, kCaptures),
        HintPolicy{}, paper_params(), reference_diag_));
    ASSERT_GT(reference_->report.recovered_windows, 0u);
  }
  static void TearDownTestSuite() {
    delete reference_;
    delete reference_diag_;
    delete attack_;
    reference_ = nullptr;
    reference_diag_ = nullptr;
    attack_ = nullptr;
  }

  static void expect_matches_reference(const sca::RecoveryReport& report,
                                       const HintSummary& totals,
                                       const std::vector<std::vector<HintRecord>>& hints,
                                       const obs::Registry& registry,
                                       const sca::ConfusionMatrix& confusion) {
    expect_reports_identical(report, reference_->report);
    EXPECT_EQ(totals.perfect, reference_->hint_totals.perfect);
    EXPECT_EQ(totals.approximate, reference_->hint_totals.approximate);
    EXPECT_EQ(totals.sign_only, reference_->hint_totals.sign_only);
    EXPECT_EQ(totals.skipped, reference_->hint_totals.skipped);
    EXPECT_EQ(totals.mean_residual_variance,
              reference_->hint_totals.mean_residual_variance);
    EXPECT_EQ(hints, reference_->hints);
    EXPECT_EQ(diag_json(registry, confusion),
              diag_json(reference_diag_->registry, reference_diag_->confusion));
  }

  static RevealAttack* attack_;
  static RecoveryCampaignResult* reference_;
  static CampaignDiagnostics* reference_diag_;
};

RevealAttack* Checkpoint::attack_ = nullptr;
RecoveryCampaignResult* Checkpoint::reference_ = nullptr;
CampaignDiagnostics* Checkpoint::reference_diag_ = nullptr;

TEST_F(Checkpoint, UninterruptedCheckpointedRunMatchesPlainCampaign) {
  for (const std::size_t workers : {0u, 2u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    CampaignRunner runner(workers);
    CheckpointOptions options;
    options.path = temp_path("plain_w" + std::to_string(workers) + ".ckpt");
    options.batch_size = 3;  // uneven final batch on purpose
    std::remove(options.path.c_str());
    const CheckpointedCampaignResult result = run_recovery_campaign_checkpointed(
        runner, *attack_, degraded_config(), kBaseSeed, kCaptures, HintPolicy{},
        paper_params(), options);
    ASSERT_TRUE(result.complete);
    EXPECT_FALSE(result.resumed);
    EXPECT_EQ(result.processed_this_call, kCaptures);
    expect_matches_reference(result.campaign.report, result.campaign.hint_totals,
                             result.campaign.hints, result.diagnostics.registry,
                             result.diagnostics.confusion);
    std::ifstream leftover(options.path);
    EXPECT_FALSE(leftover.good());  // checkpoint removed on completion
  }
}

TEST_F(Checkpoint, KillAndResumeIsByteIdentical) {
  // Simulated kill: each call may only run one batch, then "dies"; a fresh
  // call (fresh runner — nothing survives but the checkpoint file) resumes.
  CheckpointOptions options;
  options.path = temp_path("kill_resume.ckpt");
  options.batch_size = 3;
  options.max_batches_per_call = 1;
  std::remove(options.path.c_str());

  std::size_t calls = 0;
  CheckpointedCampaignResult result;
  do {
    CampaignRunner runner(calls % 2 == 0 ? 0 : 2);  // worker count varies too
    result = run_recovery_campaign_checkpointed(runner, *attack_, degraded_config(),
                                                kBaseSeed, kCaptures, HintPolicy{},
                                                paper_params(), options);
    ++calls;
    ASSERT_LE(calls, kCaptures + 1) << "resume made no progress";
    if (!result.complete) {
      EXPECT_EQ(result.processed_this_call, std::min<std::uint64_t>(3, kCaptures));
      EXPECT_EQ(result.resumed, calls > 1);
    }
  } while (!result.complete);
  EXPECT_EQ(calls, (kCaptures + 2) / 3);
  expect_matches_reference(result.campaign.report, result.campaign.hint_totals,
                           result.campaign.hints, result.diagnostics.registry,
                           result.diagnostics.confusion);
}

TEST_F(Checkpoint, CheckpointedCallsReportTheirSpansButNeverPersistThem) {
  // Spans flow in checkpointed runs as a separate, non-persisted section: a
  // call stopped after one batch of 3 reports those 3 captures' spans, and
  // its checkpoint file is byte-identical to a second such run's.
  CheckpointOptions options;
  options.batch_size = 3;
  options.max_batches_per_call = 1;
  std::string bytes[2];
  for (const std::size_t run : {0u, 1u}) {
    SCOPED_TRACE("run=" + std::to_string(run));
    options.path = temp_path("spans_" + std::to_string(run) + ".ckpt");
    std::remove(options.path.c_str());
    CampaignRunner runner(0);
    const CheckpointedCampaignResult result = run_recovery_campaign_checkpointed(
        runner, *attack_, degraded_config(), kBaseSeed, kCaptures, HintPolicy{},
        paper_params(), options);
    ASSERT_FALSE(result.complete);
    const obs::SpanTracer& tracer = result.diagnostics.tracer;
    EXPECT_EQ(tracer.timing(obs::Stage::kCapture).count, 3u);
    EXPECT_EQ(tracer.timing(obs::Stage::kSegmentation).count, 3u);
    EXPECT_EQ(tracer.timing(obs::Stage::kHints).count, 3u);
    EXPECT_EQ(tracer.timing(obs::Stage::kEstimation).count, 0u);
    bytes[run] = read_all(options.path);
  }
  ASSERT_FALSE(bytes[0].empty());
  EXPECT_EQ(bytes[0], bytes[1]);

  // The resuming call reports only the batches it ran, plus the estimation.
  options.max_batches_per_call = 0;
  CampaignRunner runner(0);
  const CheckpointedCampaignResult result = run_recovery_campaign_checkpointed(
      runner, *attack_, degraded_config(), kBaseSeed, kCaptures, HintPolicy{},
      paper_params(), options);
  ASSERT_TRUE(result.complete);
  EXPECT_TRUE(result.resumed);
  EXPECT_EQ(result.diagnostics.tracer.timing(obs::Stage::kCapture).count, kCaptures - 3);
  EXPECT_EQ(result.diagnostics.tracer.timing(obs::Stage::kEstimation).count, 1u);
  std::remove(temp_path("spans_0.ckpt").c_str());
}

TEST_F(Checkpoint, CheckpointBytesDoNotDependOnTheWorkerSchedule) {
  // A serial and a 4-worker run, each stopped after one 32-capture batch,
  // must write the same checkpoint bytes: nothing saved may depend on which
  // worker routed which capture (the worker tally persists its counts only;
  // its variance sum adds up in schedule order). The estimator gets one
  // coordinate per window of the 64-capture schedule, which the driver
  // requires up front even though no call here gets to the estimate.
  CheckpointOptions options;
  options.batch_size = 32;
  options.max_batches_per_call = 1;
  lwe::DbddParams params = paper_params();
  params.error_dim = 64 * 64;
  for (std::uint64_t base = kBaseSeed; base < kBaseSeed + 5; ++base) {
    SCOPED_TRACE("base=" + std::to_string(base));
    std::string bytes[2];
    for (const std::size_t workers : {0u, 4u}) {
      options.path = temp_path("schedule_w" + std::to_string(workers) + ".ckpt");
      std::remove(options.path.c_str());
      CampaignRunner runner(workers);
      const CheckpointedCampaignResult result = run_recovery_campaign_checkpointed(
          runner, *attack_, degraded_config(), base, 64, HintPolicy{}, params, options);
      ASSERT_FALSE(result.complete);
      bytes[workers == 0 ? 0 : 1] = read_all(options.path);
      std::remove(options.path.c_str());
    }
    ASSERT_FALSE(bytes[0].empty());
    EXPECT_EQ(bytes[0], bytes[1]);
  }
}

TEST_F(Checkpoint, ShuffledFirmwareIsRejectedByTheLiveAndCheckpointedDrivers) {
  // A shuffled trace holds 2n - 1 bursts and hides which coefficient each
  // window sampled, so positional hints from it would be wrong: the fold
  // refuses the config before any capture runs, whatever the driver.
  CampaignConfig cfg;
  cfg.n = 64;
  cfg.shuffled_firmware = true;
  CampaignRunner runner(2);
  EXPECT_THROW((void)runner.run_recovery_campaign(*attack_, cfg,
                                                  CampaignRunner::stream_seeds(kBaseSeed, 4),
                                                  HintPolicy{}, paper_params()),
               std::invalid_argument);
  CheckpointOptions options;
  options.path = temp_path("shuffled.ckpt");
  std::remove(options.path.c_str());
  EXPECT_THROW((void)run_recovery_campaign_checkpointed(runner, *attack_, cfg, kBaseSeed, 4,
                                                        HintPolicy{}, paper_params(), options),
               std::invalid_argument);
  std::ifstream leftover(options.path);
  EXPECT_FALSE(leftover.good());  // no batch ran, so nothing was saved
}

TEST_F(Checkpoint, CampaignWithMoreWindowsThanErrorCoordinatesIsRejectedUpFront) {
  // Every hint takes an estimator coordinate of its own, so 17 clean
  // captures x 64 windows (up to 1088 hints) do not fit the 1024 error
  // coordinates of paper_params(): both drivers refuse the campaign before
  // its first capture instead of failing in the estimator replay after the
  // last one. With one coordinate per window the same campaign completes.
  constexpr std::size_t kTooMany = 17;
  CampaignConfig cfg;
  cfg.n = 64;
  const std::vector<std::uint64_t> seeds = CampaignRunner::stream_seeds(kBaseSeed, kTooMany);
  CampaignRunner runner(2);
  CampaignDiagnostics diag;
  EXPECT_THROW((void)runner.run_recovery_campaign(*attack_, cfg, seeds, HintPolicy{},
                                                  paper_params(), &diag),
               std::invalid_argument);
  EXPECT_TRUE(diag.tracer.events().empty());  // no capture was folded

  CheckpointOptions options;
  options.path = temp_path("too_many.ckpt");
  std::remove(options.path.c_str());
  EXPECT_THROW((void)run_recovery_campaign_checkpointed(runner, *attack_, cfg, kBaseSeed,
                                                        kTooMany, HintPolicy{},
                                                        paper_params(), options),
               std::invalid_argument);
  EXPECT_FALSE(std::ifstream(options.path).good());  // no batch was saved

  lwe::DbddParams sized = paper_params();
  sized.error_dim = kTooMany * cfg.n;
  const RecoveryCampaignResult result =
      runner.run_recovery_campaign(*attack_, cfg, seeds, HintPolicy{}, sized);
  const HintSummary& h = result.hint_totals;
  EXPECT_GT(h.perfect + h.approximate + h.sign_only, 1024u);  // would not have fit
  EXPECT_LT(result.report.bikz, lwe::estimate_lwe_security(sized).beta);
}

TEST_F(Checkpoint, LiveResultCarriesGroundTruthInCaptureOrder) {
  // The live campaign keeps each capture's sampled coefficients next to its
  // guesses; the checkpointed driver keeps neither.
  SamplerCampaign campaign(degraded_config());
  const std::vector<std::uint64_t> seeds = CampaignRunner::stream_seeds(kBaseSeed, kCaptures);
  ASSERT_EQ(reference_->truth.size(), kCaptures);
  for (std::size_t i = 0; i < kCaptures; ++i) {
    EXPECT_EQ(reference_->truth[i], campaign.capture(seeds[i]).noise) << i;
  }
  CampaignRunner runner(2);
  CheckpointOptions options;
  options.path = temp_path("truth.ckpt");
  std::remove(options.path.c_str());
  const CheckpointedCampaignResult checkpointed = run_recovery_campaign_checkpointed(
      runner, *attack_, degraded_config(), kBaseSeed, kCaptures, HintPolicy{}, paper_params(),
      options);
  ASSERT_TRUE(checkpointed.complete);
  EXPECT_TRUE(checkpointed.campaign.captures.empty());
  EXPECT_TRUE(checkpointed.campaign.truth.empty());
}

TEST_F(Checkpoint, BatchSizeDoesNotChangeAnyOutputByte) {
  for (const std::size_t batch : {1u, 5u, 64u}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    CampaignRunner runner(0);
    CheckpointOptions options;
    options.path = temp_path("batch" + std::to_string(batch) + ".ckpt");
    options.batch_size = batch;
    std::remove(options.path.c_str());
    const CheckpointedCampaignResult result = run_recovery_campaign_checkpointed(
        runner, *attack_, degraded_config(), kBaseSeed, kCaptures, HintPolicy{},
        paper_params(), options);
    ASSERT_TRUE(result.complete);
    expect_matches_reference(result.campaign.report, result.campaign.hint_totals,
                             result.campaign.hints, result.diagnostics.registry,
                             result.diagnostics.confusion);
  }
}

TEST_F(Checkpoint, StaleCheckpointFromAnotherScheduleIsRejected) {
  const CampaignConfig cfg = degraded_config();
  const lwe::DbddParams params = paper_params();
  CheckpointOptions options;
  options.path = temp_path("stale.ckpt");
  options.batch_size = 3;
  options.max_batches_per_call = 1;  // leave a checkpoint behind
  std::remove(options.path.c_str());
  CampaignRunner runner(0);
  const CheckpointedCampaignResult partial = run_recovery_campaign_checkpointed(
      runner, *attack_, cfg, kBaseSeed, kCaptures, HintPolicy{}, params, options);
  ASSERT_FALSE(partial.complete);

  // Same path, different base seed -> digest mismatch, loud failure.
  EXPECT_THROW((void)run_recovery_campaign_checkpointed(runner, *attack_, cfg, kBaseSeed + 1,
                                                        kCaptures, HintPolicy{}, params,
                                                        options),
               std::runtime_error);
  // Different capture-shaping config too: a fault knob, a leakage-model
  // parameter, a segmentation parameter.
  CampaignConfig fewer_glitches = cfg;
  fewer_glitches.faults.glitch_count = 0;
  CampaignConfig noisier = cfg;
  noisier.leakage.noise_sigma = 0.5;
  CampaignConfig higher_threshold = cfg;
  higher_threshold.segmentation.threshold = 11.0;
  const std::uint64_t digest =
      campaign_digest(kBaseSeed, kCaptures, cfg, *attack_, HintPolicy{}, params);
  for (const CampaignConfig& other : {fewer_glitches, noisier, higher_threshold}) {
    EXPECT_NE(campaign_digest(kBaseSeed, kCaptures, other, *attack_, HintPolicy{}, params),
              digest);
    EXPECT_THROW((void)run_recovery_campaign_checkpointed(runner, *attack_, other,
                                                          kBaseSeed, kCaptures,
                                                          HintPolicy{}, params, options),
                 std::runtime_error);
  }

  // Same schedule and captures, but another attack would fold two attacks
  // into one report: a different hint policy, an attack trained on other
  // profiling captures, an attack with other decision gates, and other
  // estimator parameters.
  HintPolicy lenient;
  lenient.perfect_threshold = 0.1;
  CampaignConfig clean;
  clean.n = 64;
  clean.num_workers = 0;
  SamplerCampaign profiler(clean);
  const std::vector<WindowRecord> windows = profiler.collect_windows(120, /*seed_base=*/1);
  RevealAttack other_profile;
  other_profile.train(profiler.collect_windows(120, /*seed_base=*/1000));
  AttackConfig gated;
  gated.value_commit_threshold = 0.5;
  RevealAttack other_gates(gated);
  other_gates.train(windows);
  lwe::DbddParams wider = params;
  wider.error_variance = 100.0;

  EXPECT_THROW((void)run_recovery_campaign_checkpointed(runner, *attack_, cfg, kBaseSeed,
                                                        kCaptures, lenient, params, options),
               std::runtime_error);
  for (const RevealAttack* other : {&other_profile, &other_gates}) {
    EXPECT_NE(campaign_digest(kBaseSeed, kCaptures, cfg, *other, HintPolicy{}, params), digest);
    EXPECT_THROW((void)run_recovery_campaign_checkpointed(runner, *other, cfg, kBaseSeed,
                                                          kCaptures, HintPolicy{}, params,
                                                          options),
                 std::runtime_error);
  }
  EXPECT_THROW((void)run_recovery_campaign_checkpointed(runner, *attack_, cfg, kBaseSeed,
                                                        kCaptures, HintPolicy{}, wider, options),
               std::runtime_error);

  // The worker count never changes an output byte, so it stays out; an
  // attack retrained on the same captures is the same attack.
  CampaignConfig more_workers = cfg;
  more_workers.num_workers = 3;
  EXPECT_EQ(campaign_digest(kBaseSeed, kCaptures, more_workers, *attack_, HintPolicy{}, params),
            digest);
  RevealAttack retrained;
  retrained.train(windows);
  EXPECT_EQ(campaign_digest(kBaseSeed, kCaptures, cfg, retrained, HintPolicy{}, params), digest);
  std::remove(options.path.c_str());
}

TEST_F(Checkpoint, CheckpointFromAnOlderFormatIsRejected) {
  // A version-3 checkpoint was written under a digest that does not cover
  // the trained attack, the hint policy or the estimator parameters, so
  // nothing proves it belongs to this campaign: it must fail loudly.
  CheckpointOptions options;
  options.path = temp_path("old_version.ckpt");
  options.batch_size = 3;
  options.max_batches_per_call = 1;
  std::remove(options.path.c_str());
  CampaignRunner runner(0);
  ASSERT_FALSE(run_recovery_campaign_checkpointed(runner, *attack_, degraded_config(),
                                                  kBaseSeed, kCaptures, HintPolicy{},
                                                  paper_params(), options)
                   .complete);

  // File layout: u64 digest, u64 total, u32 marker, u32 version, ...
  constexpr std::streamoff kVersionOffset = 8 + 8 + 4;
  std::string bytes = read_all(options.path);
  ASSERT_GT(bytes.size(), static_cast<std::size_t>(kVersionOffset) + 4);
  std::uint32_t version = 0;
  std::memcpy(&version, bytes.data() + kVersionOffset, sizeof(version));
  EXPECT_EQ(version, 4u);
  version = 3;
  std::memcpy(bytes.data() + kVersionOffset, &version, sizeof(version));
  {
    std::ofstream out(options.path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    (void)run_recovery_campaign_checkpointed(runner, *attack_, degraded_config(), kBaseSeed,
                                             kCaptures, HintPolicy{}, paper_params(),
                                             options);
    ADD_FAILURE() << "a version-3 checkpoint was resumed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version"), std::string::npos)
        << e.what();
  }
  std::remove(options.path.c_str());
}

}  // namespace
