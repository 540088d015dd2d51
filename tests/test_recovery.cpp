// Unit tests for message recovery (paper Eq. 2-3) and the residual search
// — driven with synthetic guesses so every path is deterministic and fast
// (the trace-driven versions live in test_attack_integration.cpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/message_recovery.hpp"
#include "core/residual_search.hpp"
#include "seal/encryptor.hpp"
#include "seal/sampler.hpp"

using namespace reveal;
using namespace reveal::core;

namespace {

struct RecoveryWorld {
  RecoveryWorld()
      : ctx(make_params()), rng(515), keygen(ctx, rng), encryptor(ctx, keygen.public_key()) {}

  static seal::EncryptionParameters make_params() {
    seal::EncryptionParameters parms;
    parms.set_poly_modulus_degree(64);
    parms.set_coeff_modulus(seal::Modulus(132120577ULL));
    parms.set_plain_modulus(256);
    return parms;
  }

  /// Encrypts `plain` with a fresh recorded witness.
  seal::Ciphertext encrypt(const seal::Plaintext& plain, seal::EncryptionWitness& witness) {
    return encryptor.encrypt(plain, rng, &witness);
  }

  seal::Context ctx;
  seal::StandardRandomGenerator rng;
  seal::KeyGenerator keygen;
  seal::Encryptor encryptor;
};

/// Builds guesses whose ML value is the truth, except `wrong` coordinates
/// where the truth is demoted to the second-ranked candidate.
std::vector<CoefficientGuess> make_guesses(const std::vector<std::int64_t>& e2,
                                           const std::vector<std::size_t>& wrong) {
  std::vector<CoefficientGuess> guesses(e2.size());
  for (std::size_t i = 0; i < e2.size(); ++i) {
    auto& g = guesses[i];
    const std::int64_t truth = e2[i];
    g.sign = truth > 0 ? 1 : (truth < 0 ? -1 : 0);
    if (truth == 0) {
      g.value = 0;
      g.support = {0};
      g.posterior = {1.0};
      continue;
    }
    // A decoy with the same sign but a different magnitude.
    const std::int64_t decoy = truth > 0 ? (truth == 1 ? 2 : truth - 1)
                                         : (truth == -1 ? -2 : truth + 1);
    const bool is_wrong =
        std::find(wrong.begin(), wrong.end(), i) != wrong.end();
    g.support = {static_cast<std::int32_t>(truth), static_cast<std::int32_t>(decoy)};
    g.posterior = is_wrong ? std::vector<double>{0.3, 0.7}
                           : std::vector<double>{0.9, 0.1};
    g.value = static_cast<std::int32_t>(is_wrong ? decoy : truth);
  }
  return guesses;
}

}  // namespace

TEST(MessageRecovery, ExactE2RecoversMessage) {
  RecoveryWorld w;
  std::vector<std::uint64_t> msg(64);
  for (std::size_t i = 0; i < 64; ++i) msg[i] = (i * 13 + 7) % 256;
  const seal::Plaintext plain(msg);
  seal::EncryptionWitness witness;
  const seal::Ciphertext ct = w.encrypt(plain, witness);
  const auto recovered = recover_message(w.ctx, w.keygen.public_key(), ct, witness.e2);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, plain);
}

TEST(MessageRecovery, WrongE2Fails) {
  RecoveryWorld w;
  seal::EncryptionWitness witness;
  const seal::Ciphertext ct = w.encrypt(seal::Plaintext(std::uint64_t{1}), witness);
  std::vector<std::int64_t> corrupt = witness.e2;
  corrupt[5] += 1;  // one coefficient off
  EXPECT_FALSE(recover_message(w.ctx, w.keygen.public_key(), ct, corrupt).has_value());
}

TEST(MessageRecovery, RecoverUReturnsTernary) {
  RecoveryWorld w;
  seal::EncryptionWitness witness;
  const seal::Ciphertext ct = w.encrypt(seal::Plaintext(std::uint64_t{9}), witness);
  const auto u = recover_u(w.ctx, w.keygen.public_key(), ct, witness.e2);
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(*u, witness.u);
}

TEST(MessageRecovery, SizeValidation) {
  RecoveryWorld w;
  seal::EncryptionWitness witness;
  const seal::Ciphertext ct = w.encrypt(seal::Plaintext(std::uint64_t{1}), witness);
  const std::vector<std::int64_t> short_e2(10, 0);
  EXPECT_THROW(
      (void)recover_message(w.ctx, w.keygen.public_key(), ct, short_e2),
      std::invalid_argument);
}

TEST(ResidualSearch, MlAssignmentAcceptedImmediately) {
  RecoveryWorld w;
  seal::EncryptionWitness witness;
  const seal::Ciphertext ct = w.encrypt(seal::Plaintext(std::uint64_t{3}), witness);
  const auto guesses = make_guesses(witness.e2, /*wrong=*/{});
  const ResidualSearchResult r = residual_search(w.ctx, w.keygen.public_key(), ct, guesses);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.e2, witness.e2);
  EXPECT_EQ(r.tried, 1u);
}

TEST(ResidualSearch, CorrectsDemotedCoefficients) {
  // Demotes the truth at four nonzero coefficients and expects the search
  // to restore them and the message.
  RecoveryWorld w;
  std::vector<std::uint64_t> msg(64);
  for (std::size_t i = 0; i < 64; ++i) msg[i] = (i * 3) % 256;
  const seal::Plaintext plain(msg);
  seal::EncryptionWitness witness;
  const seal::Ciphertext ct = w.encryptor.encrypt(plain, w.rng, &witness);

  // Find a few nonzero coefficients to demote.
  std::vector<std::size_t> wrong;
  for (std::size_t i = 0; i < witness.e2.size() && wrong.size() < 4; ++i) {
    if (witness.e2[i] != 0) wrong.push_back(i);
  }
  ASSERT_EQ(wrong.size(), 4u);
  const auto guesses = make_guesses(witness.e2, wrong);
  const ResidualSearchResult r = residual_search(w.ctx, w.keygen.public_key(), ct, guesses);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.e2, witness.e2);
  EXPECT_GT(r.tried, 1u);
  EXPECT_LE(r.tried, 3000u);  // best-first over the widened set

  const auto recovered = recover_message(w.ctx, w.keygen.public_key(), ct, r.e2);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, plain);
}

TEST(ResidualSearch, BudgetExhaustionReportsFailure) {
  RecoveryWorld w;
  seal::EncryptionWitness witness;
  const seal::Ciphertext ct = w.encrypt(seal::Plaintext(std::uint64_t{2}), witness);
  // Demote many coefficients but give the search almost no budget.
  std::vector<std::size_t> wrong;
  for (std::size_t i = 0; i < witness.e2.size() && wrong.size() < 10; ++i) {
    if (witness.e2[i] != 0) wrong.push_back(i);
  }
  const auto guesses = make_guesses(witness.e2, wrong);
  ResidualSearchConfig cfg;
  cfg.max_tries = 3;
  const ResidualSearchResult r =
      residual_search(w.ctx, w.keygen.public_key(), ct, guesses, cfg);
  EXPECT_FALSE(r.found);
  EXPECT_LE(r.tried, 3u);
}

TEST(ResidualSearch, NoFalsePositives) {
  // If the true value is NOT among any candidate of a wrong coordinate,
  // the search must not "find" a bogus but consistent-looking e2.
  RecoveryWorld w;
  seal::EncryptionWitness witness;
  const seal::Ciphertext ct = w.encrypt(seal::Plaintext(std::uint64_t{5}), witness);
  auto guesses = make_guesses(witness.e2, {});
  // Remove the truth entirely from one nonzero coordinate's support.
  for (auto& g : guesses) {
    if (g.support.size() == 2) {
      g.support = {g.support[1]};  // decoy only
      g.posterior = {1.0};
      g.value = g.support[0];
      break;
    }
  }
  ResidualSearchConfig cfg;
  cfg.max_tries = 20000;
  const ResidualSearchResult r =
      residual_search(w.ctx, w.keygen.public_key(), ct, guesses, cfg);
  if (r.found) {
    // If something was found, it must decrypt-validate; a false positive
    // that also defeats the e1-bound oracle is cryptographically negligible.
    EXPECT_EQ(r.e2, witness.e2);
  } else {
    SUCCEED();
  }
}

TEST(ResidualSearch, InputValidation) {
  RecoveryWorld w;
  seal::EncryptionWitness witness;
  const seal::Ciphertext ct = w.encrypt(seal::Plaintext(std::uint64_t{1}), witness);
  std::vector<CoefficientGuess> too_few(10);
  EXPECT_THROW((void)residual_search(w.ctx, w.keygen.public_key(), ct, too_few),
               std::invalid_argument);
}

TEST(ResidualSearch, RejectsInvalidConfig) {
  RecoveryWorld w;
  seal::EncryptionWitness witness;
  const seal::Ciphertext ct = w.encrypt(seal::Plaintext(std::uint64_t{4}), witness);
  const auto guesses = make_guesses(witness.e2, /*wrong=*/{0, 1, 2});
  const auto search = [&](std::size_t candidates, std::size_t tries) {
    ResidualSearchConfig cfg;
    cfg.max_candidates_per_coeff = candidates;
    cfg.max_tries = tries;
    return residual_search(w.ctx, w.keygen.public_key(), ct, guesses, cfg);
  };
  EXPECT_THROW((void)search(0, 100), std::invalid_argument);
  EXPECT_THROW((void)search(257, 100), std::invalid_argument);
  EXPECT_THROW((void)search(6, 0), std::invalid_argument);
  // One candidate per coefficient leaves only the ML assignment to try.
  const ResidualSearchResult single = search(1, 100);
  EXPECT_EQ(single.tried, 1u);
  EXPECT_NO_THROW((void)search(256, 1));
}

TEST(ResidualSearch, TriesFollowExactBestFirstOrder) {
  // Seven searched coefficients (the first and last included, so the
  // consistency oracle wraps negacyclically) with 2-4 candidates each and
  // posteriors under which no two of the 1728 assignments tie. The search
  // must try assignments in exact decreasing summed log-posterior, so it
  // finds a truth planted at global rank r on try r + 1.
  RecoveryWorld w;
  seal::EncryptionWitness witness;
  const seal::Ciphertext ct = w.encrypt(seal::Plaintext(std::uint64_t{9}), witness);
  const std::vector<std::size_t> positions = {0, 5, 13, 27, 40, 51, 63};
  const std::vector<std::vector<double>> posteriors = {
      {0.61, 0.39},        {0.47, 0.33, 0.20},       {0.41, 0.29, 0.19, 0.11},
      {0.83, 0.17},        {0.52, 0.31, 0.17},       {0.37, 0.31, 0.23, 0.09},
      {0.71, 0.18, 0.11}};
  std::size_t total = 1;
  for (const auto& p : posteriors) total *= p.size();
  ASSERT_EQ(total, 1728u);

  // Every assignment (mixed-radix rank vector) by decreasing log-posterior.
  std::vector<std::vector<std::size_t>> assignments(total);
  std::vector<double> score(total);
  for (std::size_t a = 0; a < total; ++a) {
    std::size_t rest = a;
    score[a] = 0.0;
    for (const auto& p : posteriors) {
      assignments[a].push_back(rest % p.size());
      score[a] += std::log(p[rest % p.size()]);
      rest /= p.size();
    }
  }
  std::vector<std::size_t> order(total);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return score[a] > score[b]; });
  for (std::size_t r = 1; r < total; ++r) {
    ASSERT_GT(score[order[r - 1]] - score[order[r]], 1e-9) << "tie at rank " << r;
  }

  // Guesses whose candidates at `truth_ranks` hold the true e2 values (the
  // other candidates are decoys), or no true value at all when absent.
  const auto guesses_with = [&](const std::vector<std::size_t>* truth_ranks) {
    std::vector<CoefficientGuess> guesses(64);
    for (std::size_t i = 0; i < 64; ++i) {
      const auto v = static_cast<std::int32_t>(witness.e2[i]);
      guesses[i].value = v;
      guesses[i].support = {v};
      guesses[i].posterior = {1.0};
    }
    for (std::size_t k = 0; k < positions.size(); ++k) {
      auto& g = guesses[positions[k]];
      const auto truth = static_cast<std::int32_t>(witness.e2[positions[k]]);
      g.support.clear();
      g.posterior = posteriors[k];
      for (std::size_t c = 0; c < posteriors[k].size(); ++c) {
        const bool is_truth = truth_ranks != nullptr && (*truth_ranks)[k] == c;
        g.support.push_back(is_truth ? truth : truth + 1 + static_cast<std::int32_t>(c));
      }
      g.value = g.support[0];
    }
    return guesses;
  };

  ResidualSearchConfig cfg;
  cfg.max_tries = 10 * total;
  for (const std::size_t rank : {0u, 1u, 2u, 17u, 100u, 641u, 1727u}) {
    const auto guesses = guesses_with(&assignments[order[rank]]);
    const ResidualSearchResult r = residual_search(w.ctx, w.keygen.public_key(), ct, guesses, cfg);
    EXPECT_EQ(r.uncertain_count, positions.size());
    ASSERT_TRUE(r.found) << "rank " << rank;
    EXPECT_EQ(r.e2, witness.e2);
    EXPECT_EQ(r.tried, rank + 1) << "rank " << rank;
  }
  const ResidualSearchResult absent =
      residual_search(w.ctx, w.keygen.public_key(), ct, guesses_with(nullptr), cfg);
  EXPECT_FALSE(absent.found);
  EXPECT_EQ(absent.tried, total);
}
