// Checkpoint/resume and multi-process sharding byte-identity suite — the
// acceptance contract of DESIGN.md §8: a killed-and-resumed checkpointed
// campaign, a 1/2/4-shard campaign, and a corpus-replayed campaign all
// produce the same final RecoveryReport, hint set, and diagnostics JSON as
// the plain in-memory campaign over the same seed schedule, bit for bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/acquisition.hpp"
#include "core/attack.hpp"
#include "core/campaign_checkpoint.hpp"
#include "core/campaign_runner.hpp"
#include "core/corpus_campaign.hpp"
#include "core/shard_driver.hpp"
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
class CheckpointShard : public ::testing::Test {
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

RevealAttack* CheckpointShard::attack_ = nullptr;
RecoveryCampaignResult* CheckpointShard::reference_ = nullptr;
CampaignDiagnostics* CheckpointShard::reference_diag_ = nullptr;

TEST_F(CheckpointShard, UninterruptedCheckpointedRunMatchesPlainCampaign) {
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

TEST_F(CheckpointShard, KillAndResumeIsByteIdentical) {
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

TEST_F(CheckpointShard, CheckpointedCallsReportTheirSpansButNeverPersistThem) {
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

TEST_F(CheckpointShard, CheckpointBytesDoNotDependOnTheWorkerSchedule) {
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

TEST_F(CheckpointShard, ShuffledFirmwareIsRejectedByTheLiveAndCheckpointedDrivers) {
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

TEST_F(CheckpointShard, CampaignWithMoreWindowsThanErrorCoordinatesIsRejectedUpFront) {
  // Every hint takes an estimator coordinate of its own, so 17 clean
  // captures x 64 windows (up to 1088 hints) do not fit the 1024 error
  // coordinates of paper_params(): every driver refuses the campaign before
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

  ShardOptions shard_options;
  shard_options.work_dir = temp_path("too_many_shards");
  ASSERT_TRUE(std::filesystem::create_directory(shard_options.work_dir));
  shard_options.in_process = true;
  EXPECT_THROW((void)run_sharded_campaign(*attack_, cfg, kBaseSeed, kTooMany, HintPolicy{},
                                          paper_params(), shard_options),
               std::invalid_argument);
  EXPECT_TRUE(std::filesystem::is_empty(shard_options.work_dir));  // no shard ran

  const std::string corpus_path = temp_path("too_many.rvlc");
  {
    corpus::CorpusWriter writer = corpus::CorpusWriter::create(corpus_path);
    append_campaign_captures(writer, runner, cfg, seeds);
    writer.close();
  }
  const corpus::CorpusReader corpus(corpus_path);
  EXPECT_THROW((void)run_recovery_campaign_on_corpus(runner, *attack_, corpus, cfg.n,
                                                     cfg.segmentation, HintPolicy{},
                                                     paper_params()),
               std::invalid_argument);

  lwe::DbddParams sized = paper_params();
  sized.error_dim = kTooMany * cfg.n;
  const RecoveryCampaignResult result =
      runner.run_recovery_campaign(*attack_, cfg, seeds, HintPolicy{}, sized);
  const HintSummary& h = result.hint_totals;
  EXPECT_GT(h.perfect + h.approximate + h.sign_only, 1024u);  // would not have fit
  EXPECT_LT(result.report.bikz, lwe::estimate_lwe_security(sized).beta);
}

TEST_F(CheckpointShard, LiveResultCarriesGroundTruthInCaptureOrder) {
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

TEST_F(CheckpointShard, BatchSizeDoesNotChangeAnyOutputByte) {
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

TEST_F(CheckpointShard, StaleCheckpointFromAnotherScheduleIsRejected) {
  CheckpointOptions options;
  options.path = temp_path("stale.ckpt");
  options.batch_size = 3;
  options.max_batches_per_call = 1;  // leave a checkpoint behind
  std::remove(options.path.c_str());
  CampaignRunner runner(0);
  const CheckpointedCampaignResult partial = run_recovery_campaign_checkpointed(
      runner, *attack_, degraded_config(), kBaseSeed, kCaptures, HintPolicy{},
      paper_params(), options);
  ASSERT_FALSE(partial.complete);

  // Same path, different base seed -> digest mismatch, loud failure.
  EXPECT_THROW((void)run_recovery_campaign_checkpointed(
                   runner, *attack_, degraded_config(), kBaseSeed + 1, kCaptures,
                   HintPolicy{}, paper_params(), options),
               std::runtime_error);
  // Different capture-shaping config too: a fault knob, a leakage-model
  // parameter, a segmentation parameter.
  CampaignConfig fewer_glitches = degraded_config();
  fewer_glitches.faults.glitch_count = 0;
  CampaignConfig noisier = degraded_config();
  noisier.leakage.noise_sigma = 0.5;
  CampaignConfig higher_threshold = degraded_config();
  higher_threshold.segmentation.threshold = 11.0;
  const std::uint64_t digest = campaign_digest(kBaseSeed, kCaptures, degraded_config());
  for (const CampaignConfig& other : {fewer_glitches, noisier, higher_threshold}) {
    EXPECT_NE(campaign_digest(kBaseSeed, kCaptures, other), digest);
    EXPECT_THROW((void)run_recovery_campaign_checkpointed(runner, *attack_, other,
                                                          kBaseSeed, kCaptures,
                                                          HintPolicy{}, paper_params(),
                                                          options),
                 std::runtime_error);
  }
  // The worker count never changes an output byte, so it stays out.
  CampaignConfig more_workers = degraded_config();
  more_workers.num_workers = 3;
  EXPECT_EQ(campaign_digest(kBaseSeed, kCaptures, more_workers), digest);
  std::remove(options.path.c_str());
}

TEST_F(CheckpointShard, CheckpointFromAnOlderFormatIsRejected) {
  // A version-2 checkpoint holds captures with Box-Muller noise; resuming
  // it would mix two noise kernels in one campaign, so it must fail loudly.
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
  EXPECT_EQ(version, 3u);
  version = 2;
  std::memcpy(bytes.data() + kVersionOffset, &version, sizeof(version));
  {
    std::ofstream out(options.path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    (void)run_recovery_campaign_checkpointed(runner, *attack_, degraded_config(), kBaseSeed,
                                             kCaptures, HintPolicy{}, paper_params(),
                                             options);
    ADD_FAILURE() << "a version-2 checkpoint was resumed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version"), std::string::npos)
        << e.what();
  }
  std::remove(options.path.c_str());
}

TEST(ShardRange, CeilSplitCoversTheScheduleContiguously) {
  for (const std::uint64_t total : {0u, 1u, 7u, 8u, 9u, 100u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 4u, 13u}) {
      std::uint64_t cursor = 0;
      for (std::size_t s = 0; s < shards; ++s) {
        const auto [begin, end] = shard_range(total, shards, s);
        EXPECT_EQ(begin, cursor);
        EXPECT_LE(end, total);
        EXPECT_GE(end, begin);
        cursor = end;
      }
      EXPECT_EQ(cursor, total) << "total=" << total << " shards=" << shards;
    }
  }
  EXPECT_THROW((void)shard_range(10, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)shard_range(10, 2, 2), std::out_of_range);
}

TEST_F(CheckpointShard, ShardCountDoesNotChangeAnyOutputByte) {
  for (const std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardOptions options;
    options.shards = shards;
    options.work_dir = reveal::test::process_temp_dir();
    options.workers_per_shard = shards == 2 ? 2 : 0;  // mix worker counts in
    options.in_process = true;
    CampaignDiagnostics diag;
    const RecoveryCampaignResult result =
        run_sharded_campaign(*attack_, degraded_config(), kBaseSeed, kCaptures,
                             HintPolicy{}, paper_params(), options, &diag);
    expect_matches_reference(result.report, result.hint_totals, result.hints, diag.registry,
                             diag.confusion);
    EXPECT_EQ(diag.tracer.timing(obs::Stage::kCapture).count, 0u);  // span-free
  }
}

TEST_F(CheckpointShard, ForkedShardsMatchInProcessShards) {
#ifdef REVEAL_FORCE_IN_PROCESS_SHARDS
  GTEST_SKIP() << "fork-based sharding is disabled under this sanitizer config";
#else
  ShardOptions options;
  options.shards = 2;
  options.work_dir = reveal::test::process_temp_dir();
  options.workers_per_shard = 0;  // children stay single-threaded
  options.in_process = false;
  CampaignDiagnostics diag;
  const RecoveryCampaignResult result =
      run_sharded_campaign(*attack_, degraded_config(), kBaseSeed, kCaptures,
                           HintPolicy{}, paper_params(), options, &diag);
  expect_matches_reference(result.report, result.hint_totals, result.hints, diag.registry,
                           diag.confusion);
#endif
}

TEST_F(CheckpointShard, ConcurrentCampaignsShareOneWorkDir) {
  // A 2-shard and a 4-shard campaign over the same schedule (so the same
  // digest) run at once in one work_dir: each call keeps its partials in a
  // directory of its own, so neither reads the other's files, both match
  // the reference, and nothing is left behind.
  const std::string work_dir = temp_path("concurrent");
  ASSERT_TRUE(std::filesystem::create_directory(work_dir));
  const std::size_t shard_counts[2] = {2, 4};
  RecoveryCampaignResult results[2];
  CampaignDiagnostics diags[2];
  std::exception_ptr errors[2];
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      try {
        ShardOptions options;
        options.shards = shard_counts[t];
        options.work_dir = work_dir;
        options.in_process = true;
        results[t] = run_sharded_campaign(*attack_, degraded_config(), kBaseSeed, kCaptures,
                                          HintPolicy{}, paper_params(), options, &diags[t]);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < 2; ++t) {
    SCOPED_TRACE("shards=" + std::to_string(shard_counts[t]));
    ASSERT_FALSE(errors[t]) << "campaign threw";
    expect_matches_reference(results[t].report, results[t].hint_totals, results[t].hints,
                             diags[t].registry, diags[t].confusion);
  }
  EXPECT_TRUE(std::filesystem::is_empty(work_dir));
}

TEST_F(CheckpointShard, KeptPartialsStayInOneRunDirectory) {
  const std::string work_dir = temp_path("kept");
  ASSERT_TRUE(std::filesystem::create_directory(work_dir));
  ShardOptions options;
  options.shards = 2;
  options.work_dir = work_dir;
  options.in_process = true;
  options.keep_partials = true;
  (void)run_sharded_campaign(*attack_, degraded_config(), kBaseSeed, kCaptures,
                             HintPolicy{}, paper_params(), options);
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(
                    campaign_digest(kBaseSeed, kCaptures, degraded_config())));
  std::vector<std::filesystem::path> run_dirs;
  for (const auto& entry : std::filesystem::directory_iterator(work_dir))
    run_dirs.push_back(entry.path());
  ASSERT_EQ(run_dirs.size(), 1u);
  std::size_t partials = 0;
  for (const auto& entry : std::filesystem::directory_iterator(run_dirs[0])) {
    EXPECT_NE(entry.path().filename().string().find(digest), std::string::npos)
        << entry.path();
    ++partials;
  }
  EXPECT_EQ(partials, options.shards);
}

TEST_F(CheckpointShard, CorpusReplayMatchesLiveCampaign) {
  // Capture the schedule into a corpus, then run the recovery campaign off
  // the stored traces: per-capture outputs must match the live campaign
  // (the corpus path has no acquisition-side diagnostics, so the identity
  // here is captures + hints + report, not the registry).
  const std::string path = temp_path("replay.rvlc");
  const CampaignConfig cfg = degraded_config();
  {
    CampaignRunner runner(2);
    corpus::CorpusWriter writer = corpus::CorpusWriter::create(path);
    append_campaign_captures(writer, runner, cfg,
                             CampaignRunner::stream_seeds(kBaseSeed, kCaptures));
    writer.close();
  }
  corpus::CorpusReader corpus(path);
  ASSERT_EQ(corpus.size(), kCaptures);

  for (const std::size_t workers : {0u, 2u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    CampaignRunner runner(workers);
    const RecoveryCampaignResult result = run_recovery_campaign_on_corpus(
        runner, *attack_, corpus, cfg.n, cfg.segmentation, HintPolicy{},
        paper_params());
    expect_reports_identical(result.report, reference_->report);
    EXPECT_EQ(result.hints, reference_->hints);
    EXPECT_TRUE(result.truth.empty());  // stored traces carry no ground truth
    ASSERT_EQ(result.captures.size(), reference_->captures.size());
    for (std::size_t i = 0; i < result.captures.size(); ++i) {
      EXPECT_EQ(result.captures[i].segmentation.status,
                reference_->captures[i].segmentation.status);
      EXPECT_EQ(result.captures[i].segmentation.burst_consistency,
                reference_->captures[i].segmentation.burst_consistency);
      ASSERT_EQ(result.captures[i].guesses.size(), reference_->captures[i].guesses.size());
    }
  }
}

TEST_F(CheckpointShard, ShardedCorpusIsByteIdenticalForEveryShardCount) {
  const CampaignConfig cfg = degraded_config();
  std::vector<std::string> built;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    ShardOptions options;
    options.shards = shards;
    options.work_dir = reveal::test::process_temp_dir();
    options.in_process = true;
    const std::string dest = temp_path("sharded_" + std::to_string(shards) + ".rvlc");
    build_sharded_corpus(dest, cfg, kBaseSeed, kCaptures, options);
    built.push_back(dest);
  }
  const std::string reference_bytes = read_all(built[0]);
  ASSERT_FALSE(reference_bytes.empty());
  for (std::size_t i = 1; i < built.size(); ++i) {
    EXPECT_EQ(read_all(built[i]), reference_bytes) << built[i];
  }
  // And the labels are the global capture indices, shard-count independent.
  corpus::CorpusReader reader(built.back());
  ASSERT_EQ(reader.size(), kCaptures);
  for (std::size_t i = 0; i < kCaptures; ++i)
    EXPECT_EQ(reader[i].label, static_cast<std::int32_t>(i));
}

}  // namespace
