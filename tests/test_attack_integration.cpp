// Integration tests for the full RevEAL pipeline: capture -> segmentation
// -> sign classification -> template attack -> hints -> message recovery.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/acquisition.hpp"
#include "core/attack.hpp"
#include "core/hints.hpp"
#include "core/message_recovery.hpp"
#include "core/residual_search.hpp"
#include "lwe/dbdd.hpp"
#include "power/trace_recorder.hpp"
#include "sca/report.hpp"
#include "seal/decryptor.hpp"
#include "seal/encryptor.hpp"
#include "seal/sampler.hpp"

using namespace reveal;
using namespace reveal::core;

namespace {

CampaignConfig small_campaign() {
  CampaignConfig cfg;
  cfg.n = 64;
  cfg.moduli = {132120577ULL};
  return cfg;
}

/// The single-trace attack on one capture of `cfg`'s campaign.
std::vector<CoefficientGuess> attack_guesses(const RevealAttack& attack,
                                             const CampaignConfig& cfg,
                                             const FullCapture& cap) {
  return attack.attack_capture_robust(cap.trace, cfg.n, cfg.segmentation).guesses;
}

}  // namespace

TEST(Acquisition, SegmentationFindsEveryCoefficient) {
  SamplerCampaign campaign(small_campaign());
  std::size_t ok = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const FullCapture cap = campaign.capture(seed);
    EXPECT_EQ(cap.noise.size(), 64u);
    if (cap.segments.size() == 64u) ++ok;
  }
  // Segmentation must be essentially perfect for the single-trace attack.
  EXPECT_EQ(ok, 10u);
}

TEST(Acquisition, WindowsAlignedAndLongEnough) {
  SamplerCampaign campaign(small_campaign());
  const FullCapture cap = campaign.capture(99);
  ASSERT_EQ(cap.segments.size(), 64u);
  const auto windows = windows_from_capture(cap);
  for (const auto& w : windows) {
    EXPECT_GE(w.samples.size(), 100u);  // room for sign + value prefix
  }
}

TEST(Acquisition, CollectRejectsBadCapturesGracefully) {
  SamplerCampaign campaign(small_campaign());
  std::size_t rejected = 7777;
  const auto windows = campaign.collect_windows(5, 1000, &rejected);
  EXPECT_EQ(windows.size() + rejected * 64, 5u * 64);
}

class AttackPipeline : public ::testing::Test {
 protected:
  // One shared profiling phase for all pipeline tests (expensive).
  static void SetUpTestSuite() {
    campaign_ = new SamplerCampaign(small_campaign());
    attack_ = new RevealAttack();
    const auto profiling = campaign_->collect_windows(kProfilingRuns, /*seed_base=*/1);
    ASSERT_GE(profiling.size(), kProfilingRuns * 60u);
    attack_->train(profiling);
  }
  static void TearDownTestSuite() {
    delete attack_;
    delete campaign_;
    attack_ = nullptr;
    campaign_ = nullptr;
  }

  static constexpr std::size_t kProfilingRuns = 120;  // ~7.7k windows
  static SamplerCampaign* campaign_;
  static RevealAttack* attack_;
};

SamplerCampaign* AttackPipeline::campaign_ = nullptr;
RevealAttack* AttackPipeline::attack_ = nullptr;

TEST_F(AttackPipeline, SignClassificationIsPerfect) {
  // Paper §IV-B: "Our attack has 100% success rate for guessing the sign."
  std::size_t total = 0, correct = 0;
  for (std::uint64_t seed = 500; seed < 520; ++seed) {
    const FullCapture cap = campaign_->capture(seed);
    ASSERT_EQ(cap.segments.size(), 64u);
    const auto guesses = attack_guesses(*attack_, campaign_->config(), cap);
    for (std::size_t i = 0; i < guesses.size(); ++i) {
      const int truth = cap.noise[i] > 0 ? 1 : (cap.noise[i] < 0 ? -1 : 0);
      correct += (guesses[i].sign == truth);
      ++total;
    }
  }
  EXPECT_EQ(correct, total);
}

TEST_F(AttackPipeline, ValueRecoveryBeatsChanceAndFavoursNegatives) {
  sca::ConfusionMatrix cm;
  for (std::uint64_t seed = 600; seed < 640; ++seed) {
    const FullCapture cap = campaign_->capture(seed);
    ASSERT_EQ(cap.segments.size(), 64u);
    const auto guesses = attack_guesses(*attack_, campaign_->config(), cap);
    for (std::size_t i = 0; i < guesses.size(); ++i) {
      cm.add(static_cast<std::int32_t>(cap.noise[i]), guesses[i].value);
    }
  }
  // Zero is detected via the branch: 100%.
  EXPECT_NEAR(cm.accuracy(0), 100.0, 1e-9);
  // Negative values must be recovered noticeably better than positive ones
  // (vulnerability 3; see Table I).
  double neg_acc = 0.0, pos_acc = 0.0;
  std::size_t neg_n = 0, pos_n = 0;
  for (int v = 1; v <= 6; ++v) {
    if (cm.truth_count(-v) > 20) {
      neg_acc += cm.accuracy(-v);
      ++neg_n;
    }
    if (cm.truth_count(v) > 20) {
      pos_acc += cm.accuracy(v);
      ++pos_n;
    }
  }
  ASSERT_GT(neg_n, 0u);
  ASSERT_GT(pos_n, 0u);
  neg_acc /= static_cast<double>(neg_n);
  pos_acc /= static_cast<double>(pos_n);
  EXPECT_GT(neg_acc, 50.0);
  EXPECT_GT(neg_acc, pos_acc + 20.0);
  // Positives still beat random guessing over ~14 candidates (~7%).
  EXPECT_GT(pos_acc, 10.0);
}

TEST_F(AttackPipeline, PosteriorsAreCalibratedProbabilities) {
  const FullCapture cap = campaign_->capture(700);
  ASSERT_EQ(cap.segments.size(), 64u);
  const auto guesses = attack_guesses(*attack_, campaign_->config(), cap);
  for (const auto& g : guesses) {
    double total = 0.0;
    for (const double p : g.posterior) {
      EXPECT_GE(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_EQ(g.support.size(), g.posterior.size());
  }
}

TEST_F(AttackPipeline, HintsCollapseEstimatedSecurity) {
  // Collect 1024 coefficient guesses (16 captures x 64) and feed them into
  // the SEAL-128 DBDD instance, like the paper's Tables III/IV.
  std::vector<CoefficientGuess> guesses;
  for (std::uint64_t seed = 800; guesses.size() < 1024; ++seed) {
    const FullCapture cap = campaign_->capture(seed);
    ASSERT_EQ(cap.segments.size(), 64u);
    const auto batch = attack_guesses(*attack_, campaign_->config(), cap);
    guesses.insert(guesses.end(), batch.begin(), batch.end());
  }
  guesses.resize(1024);

  lwe::DbddParams params;
  params.secret_dim = 1024;
  params.error_dim = 1024;
  params.q = 132120577.0;
  params.secret_variance = 3.2 * 3.2;
  params.error_variance = 3.2 * 3.2;

  // Table III shape: ~382 bikz -> "complete break" with full hints.
  const double baseline = lwe::estimate_lwe_security(params).beta;
  EXPECT_GT(baseline, 300.0);

  // (i) Honest calibration: integrate the measured posterior variances.
  lwe::DbddEstimator with_hints(params);
  const HintSummary summary = integrate_guess_hints(
      with_hints, guesses, HintPolicy{.perfect_threshold = 1e-6, .zero_hint_variance = 0.0});
  EXPECT_EQ(summary.perfect + summary.approximate, 1024u);
  EXPECT_GT(summary.perfect, 100u);  // zeros (and sharp negatives) are exact
  const double hinted = with_hints.estimate().beta;
  EXPECT_LT(hinted, baseline - 80.0);

  // (ii) The paper's methodology: measurements are treated as (near-)perfect
  // hints ("the distribution has a variance that is very close if not equal
  // to 0"), which is what yields the 12.2-bikz complete break of Table III.
  lwe::DbddEstimator paper_style(params);
  paper_style.integrate_perfect_error_hints(1024);
  EXPECT_LT(paper_style.estimate().beta, 40.0);

  // Table IV shape: signs alone reduce but do NOT break the scheme.
  lwe::DbddEstimator sign_only(params);
  integrate_sign_only_hints(sign_only, guesses, 3.19, 41.0);
  const double signs = sign_only.estimate().beta;
  EXPECT_LT(signs, baseline - 40.0);
  EXPECT_GT(signs, 150.0);
  EXPECT_GT(signs, hinted);
}

TEST_F(AttackPipeline, RobustPathMatchesSeedPipelineBitIdentically) {
  // Acceptance criterion of the robustness layer: with no faults injected
  // and the default (gates-off) AttackConfig, the degradation-aware entry
  // point must reproduce the seed pipeline — every window of the
  // capture-side segmentation attacked at full quality — exactly: same
  // segmentation on the first attempt and field-identical guesses, not
  // merely "close".
  for (std::uint64_t seed = 2000; seed < 2008; ++seed) {
    const FullCapture cap = campaign_->capture(seed);
    ASSERT_EQ(cap.segments.size(), 64u);
    std::vector<CoefficientGuess> seed_guesses;
    for (const WindowRecord& w : windows_from_capture(cap))
      seed_guesses.push_back(attack_->attack_window(w.samples));

    const RobustCaptureResult robust = attack_->attack_capture_robust(
        cap.trace, 64, campaign_->config().segmentation);
    EXPECT_EQ(robust.segmentation.status, sca::SegmentationStatus::kOk);
    EXPECT_EQ(robust.segmentation.attempts, 1u);
    ASSERT_EQ(robust.segmentation.segments.size(), cap.segments.size());
    for (std::size_t i = 0; i < cap.segments.size(); ++i) {
      EXPECT_EQ(robust.segmentation.segments[i].window_begin,
                cap.segments[i].window_begin);
      EXPECT_EQ(robust.segmentation.segments[i].window_end, cap.segments[i].window_end);
    }

    ASSERT_EQ(robust.guesses.size(), seed_guesses.size());
    for (std::size_t i = 0; i < seed_guesses.size(); ++i) {
      const auto& a = seed_guesses[i];
      const auto& b = robust.guesses[i];
      EXPECT_EQ(a.sign, b.sign);
      EXPECT_EQ(a.value, b.value);
      EXPECT_EQ(a.support, b.support);
      EXPECT_EQ(a.posterior, b.posterior);  // bit-identical doubles
      EXPECT_EQ(b.quality, GuessQuality::kOk);
      EXPECT_TRUE(b.sign_trusted);
    }
  }
}

TEST(AttackTraining, ReadsOnlyConfiguredPrefixes) {
  // Training reads the first sign_prefix and value_prefix samples of each
  // profiling window and nothing after them: windows cut to the longer
  // prefix must train the same POIs and produce bit-identical guesses.
  SamplerCampaign campaign(small_campaign());
  const std::vector<WindowRecord> whole = campaign.collect_windows(60, /*seed_base=*/1);
  ASSERT_FALSE(whole.empty());
  const AttackConfig config;
  const std::size_t keep = std::max(config.sign_prefix, config.value_prefix);
  std::vector<WindowRecord> cut = whole;
  std::size_t shortest = whole.front().samples.size();
  for (WindowRecord& w : cut) {
    ASSERT_GT(w.samples.size(), keep);
    shortest = std::min(shortest, w.samples.size());
    w.samples.resize(keep);
  }
  RevealAttack from_whole(config);
  from_whole.train(whole);
  RevealAttack from_cut(config);
  from_cut.train(cut);
  EXPECT_EQ(from_cut.positive_pois(), from_whole.positive_pois());
  EXPECT_EQ(from_cut.negative_pois(), from_whole.negative_pois());

  for (std::uint64_t seed = 3000; seed < 3004; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FullCapture cap = campaign.capture(seed);
    const auto a = attack_guesses(from_whole, campaign.config(), cap);
    const auto b = attack_guesses(from_cut, campaign.config(), cap);
    ASSERT_EQ(a.size(), 64u);
    ASSERT_EQ(b.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(b[i].sign, a[i].sign);
      EXPECT_EQ(b[i].value, a[i].value);
      EXPECT_EQ(b[i].support, a[i].support);
      EXPECT_EQ(b[i].posterior, a[i].posterior);  // bit-identical doubles
      EXPECT_EQ(b[i].sign_margin, a[i].sign_margin);
      EXPECT_EQ(b[i].quality, a[i].quality);
    }
  }

  // A sign prefix longer than the shortest window is rejected, not read past
  // the window's end.
  AttackConfig long_sign = config;
  long_sign.sign_prefix = 1000;
  ASSERT_LT(shortest, long_sign.sign_prefix);
  RevealAttack too_long(long_sign);
  EXPECT_THROW(too_long.train(whole), std::invalid_argument);
}

TEST(EndToEnd, SingleTraceMessageRecovery) {
  // Tie a capture to a real BFV encryption: the victim-sampled noise is e2,
  // then the attack must recover the plaintext from (trace, pk, ct) alone
  // via u = (c1 - e2)/p1 and Eq. (3). Uses the lab-grade acquisition
  // (low noise, strong per-bit spread) in which per-coefficient posteriors
  // are sharp — the regime of the paper's Table II, where full message
  // recovery from a single trace succeeds; the default-noise configuration
  // instead reproduces the Table I statistics.
  CampaignConfig lab = small_campaign();
  lab.leakage.noise_sigma = 0.01;
  lab.leakage.bit_deviation = 0.35;
  SamplerCampaign campaign(lab);
  RevealAttack attack;
  attack.train(campaign.collect_windows(150, /*seed_base=*/1));

  seal::EncryptionParameters parms;
  parms.set_poly_modulus_degree(64);
  parms.set_coeff_modulus({seal::Modulus(132120577ULL)});
  parms.set_plain_modulus(256);
  const seal::Context ctx(parms);
  seal::StandardRandomGenerator rng(31415);
  const seal::KeyGenerator keygen(ctx, rng);
  const seal::Encryptor encryptor(ctx, keygen.public_key());

  // Tries per seed. The search is exact best-first, so these move only when
  // the posteriors or the enumeration order change. Seed 906 exhausts the
  // budget.
  const std::size_t kExpectedTried[] = {3300, 99017, 65, 160, 793, 7840, 500000, 94, 2281, 1505};
  std::size_t successes = 0;
  std::size_t attempts = 0;
  for (std::uint64_t seed = 900; seed < 910; ++seed) {
    const FullCapture cap = campaign.capture(seed);
    ASSERT_EQ(cap.segments.size(), 64u);

    // The encryption whose e2 was sampled on the victim.
    seal::EncryptionWitness witness;
    witness.u = seal::Poly(64, 1);
    seal::sample_poly_ternary(witness.u, rng, ctx);
    witness.e1.assign(64, 0);
    seal::StandardRandomGenerator noise_rng(seed);
    std::vector<std::int64_t> e1;
    (void)seal::sample_error_poly(noise_rng, ctx, &e1);
    witness.e1 = e1;
    witness.e2 = cap.noise;

    std::vector<std::uint64_t> msg(64);
    for (std::size_t i = 0; i < 64; ++i) msg[i] = (i * 31 + seed) % 256;
    const seal::Plaintext plain(msg);
    const seal::Ciphertext ct = encryptor.encrypt_with_witness(plain, witness);

    // Attack: recover e2 from the trace (template posteriors + residual
    // search with the public-value consistency oracle), then the message.
    const auto guesses = attack_guesses(attack, lab, cap);
    ++attempts;
    ResidualSearchConfig search_config;
    search_config.max_tries = 500000;
    const ResidualSearchResult search =
        residual_search(ctx, keygen.public_key(), ct, guesses, search_config);
    EXPECT_EQ(search.tried, kExpectedTried[seed - 900]) << "seed " << seed;
    if (search.found) {
      const auto recovered = recover_message(ctx, keygen.public_key(), ct, search.e2);
      if (recovered.has_value() && *recovered == plain) ++successes;
    }

    // With ground-truth e2 the recovery must always work (sanity).
    const auto exact = recover_message(ctx, keygen.public_key(), ct, cap.noise);
    ASSERT_TRUE(exact.has_value());
    EXPECT_EQ(*exact, plain);
  }
  // Full single-trace recovery: with the lab-grade acquisition the
  // residual search closes the remaining gap for (nearly) every trace —
  // and whenever the search reports success the decoded message must be
  // the right one (checked above), never a false positive.
  EXPECT_GE(successes, attempts - 2) << "attempts=" << attempts;
}

TEST(PatchedFirmwareNote, VulnerableAndPatchedDifferOnlyInControlFlow) {
  // Documented behaviour: the library-level patched sampler produces the
  // same values as the vulnerable one (see test_sampler.cpp); the firmware
  // counterpart of the patch is exercised in bench_patched_sampler.
  SUCCEED();
}

TEST(EndToEnd, FullEncryptionTraceCoversBothErrorPolys) {
  // One trace of the full encryption (e1 sampled, then e2): segmentation
  // must find 2n windows, and templates trained on single-poly captures
  // transfer (the per-coefficient code is identical).
  constexpr std::size_t kN = 64;
  CampaignConfig cfg = small_campaign();
  SamplerCampaign campaign(cfg);
  RevealAttack attack;
  attack.train(campaign.collect_windows(120, /*seed_base=*/1));

  const VictimProgram prog = build_encryption_firmware(kN, {132120577ULL});
  riscv::Machine machine(prog.memory_bytes);
  const power::LeakageModel model(cfg.leakage);
  power::TraceRecorder recorder(model, /*noise_seed=*/5);
  const VictimRun run = run_victim(prog, machine, 0xBEEF, &recorder);

  const RobustCaptureResult res =
      attack.attack_capture_robust(recorder.take_samples(), 2 * kN, cfg.segmentation);
  ASSERT_EQ(res.guesses.size(), 2 * kN);

  std::size_t sign_ok = 0;
  for (std::size_t w = 0; w < res.guesses.size(); ++w) {
    const sca::Segment& seg = res.segmentation.segments[w];
    if (seg.window_end - seg.window_begin < 110) continue;  // final window may be short-ish
    const std::int64_t truth = run.noise[w];
    const int truth_sign = truth > 0 ? 1 : (truth < 0 ? -1 : 0);
    sign_ok += (res.guesses[w].sign == truth_sign);
  }
  // Sign recovery transfers across both polynomials (one window between the
  // polys may see a slightly different continuation).
  EXPECT_GE(sign_ok, 2 * kN - 2);
}

TEST(Acquisition, RobustToBaselineDrift) {
  // Slow supply drift must not break segmentation or sign recovery (the
  // thresholds have multi-sigma margins).
  CampaignConfig cfg = small_campaign();
  cfg.leakage.drift_sigma = 0.002;  // ~0.4 units of wander over a trace
  SamplerCampaign campaign(cfg);
  RevealAttack attack;
  attack.train(campaign.collect_windows(100, /*seed_base=*/1));
  std::size_t total = 0, sign_ok = 0;
  for (std::uint64_t seed = 400; seed < 410; ++seed) {
    const FullCapture cap = campaign.capture(seed);
    ASSERT_EQ(cap.segments.size(), cfg.n) << seed;
    const auto guesses = attack_guesses(attack, cfg, cap);
    for (std::size_t i = 0; i < guesses.size(); ++i) {
      const int truth = cap.noise[i] > 0 ? 1 : (cap.noise[i] < 0 ? -1 : 0);
      sign_ok += (guesses[i].sign == truth);
      ++total;
    }
  }
  EXPECT_GE(sign_ok, total - 3);  // drift may cost at most a stray window
}
