// "Explore the remaining search space" at laptop scale: a REAL lattice
// attack (LLL/BKZ, Kannan embedding) on scaled-down LWE instances, with and
// without side-channel hints — demonstrating, not merely estimating, that
// hints make the instance practically solvable. Section [4] measures the
// single-trace attack's residual search: the share of fresh captures it
// recovers within each try budget.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/residual_search.hpp"
#include "lwe/dbdd.hpp"
#include "lwe/lwe.hpp"
#include "numeric/rng.hpp"
#include "seal/encryptor.hpp"
#include "seal/sampler.hpp"

using namespace reveal;
using namespace reveal::lwe;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// Profiles like attack_cli (150 captures), then attacks `captures` fresh
/// captures, each encrypted under a fresh key, with one residual search of
/// `budget` tries. Returns the sorted tries of the recovered captures. The
/// search is exact best-first, so a capture recovered on try k is recovered
/// by every budget of at least k tries.
std::vector<std::size_t> recovered_tries(const core::CampaignConfig& cfg, std::size_t captures,
                                         std::size_t budget) {
  core::SamplerCampaign campaign(cfg);
  core::RevealAttack attack;
  attack.train(campaign.collect_windows(150, /*seed_base=*/1));
  seal::EncryptionParameters parms;
  parms.set_poly_modulus_degree(cfg.n);
  parms.set_coeff_modulus({seal::Modulus(cfg.moduli[0])});
  parms.set_plain_modulus(256);
  const seal::Context ctx(parms);

  std::vector<std::size_t> tries;
  for (std::uint64_t seed = 50000; seed < 50000 + captures; ++seed) {
    seal::StandardRandomGenerator rng(seed);
    const seal::KeyGenerator keygen(ctx, rng);
    const seal::Encryptor encryptor(ctx, keygen.public_key());
    const core::FullCapture cap = campaign.capture(seed);
    seal::EncryptionWitness witness;
    seal::sample_poly_ternary(witness.u, rng, ctx);
    (void)seal::sample_error_poly(rng, ctx, &witness.e1);
    witness.e2 = cap.noise;
    std::vector<std::uint64_t> msg(cfg.n);
    for (std::size_t i = 0; i < cfg.n; ++i) msg[i] = (i * 31 + seed) % 256;
    const seal::Ciphertext ct = encryptor.encrypt_with_witness(seal::Plaintext(msg), witness);

    const auto guesses = attack.attack_capture_robust(cap.trace, cfg.n, cfg.segmentation).guesses;
    if (guesses.size() != cfg.n) continue;
    core::ResidualSearchConfig rs;
    rs.max_tries = budget;
    const core::ResidualSearchResult r =
        core::residual_search(ctx, keygen.public_key(), ct, guesses, rs);
    if (r.found && r.e2 == cap.noise) tries.push_back(r.tried);
  }
  std::sort(tries.begin(), tries.end());
  return tries;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Cli cli(argc, argv, {{"--quick"}});
  const bool quick = cli.has("--quick");
  bench::print_header(
      "Toy-scale real recovery (BKZ + hints)",
      "Primal attack with our own LLL/BKZ on small LWE instances; perfect\n"
      "hints turn the lattice problem into linear algebra (paper §III-D).");

  num::Xoshiro256StarStar rng(20220314);

  // --- 1: primal uSVP attack without hints (BKZ does the work) -----------
  std::printf("\n[1] primal attack without hints (Kannan embedding + BKZ):\n");
  std::printf("%6s %6s %8s %10s %12s %10s\n", "n", "m", "beta", "success", "time (s)",
              "est.bikz");
  const std::size_t sizes[] = {6, 8, 10, 12};
  for (const std::size_t n : sizes) {
    if (quick && n > 10) break;
    LweParams params;
    params.n = n;
    params.m = 2 * n;
    params.q = 1009;
    params.sigma = 1.5;
    std::size_t solved = 0;
    const std::size_t trials = 3;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t t = 0; t < trials; ++t) {
      const SampledLwe s = sample_lwe(params, rng);
      const auto recovered = primal_attack(s.instance, /*block_size=*/12, /*max_tours=*/12);
      if (recovered.has_value() && *recovered == s.secret) ++solved;
    }
    DbddParams est;
    est.secret_dim = n;
    est.error_dim = params.m;
    est.q = static_cast<double>(params.q);
    est.secret_variance = 2.0 / 3.0;
    est.error_variance = params.sigma * params.sigma;
    std::printf("%6zu %6zu %8d %9zu/%zu %12.2f %10.1f\n", n, params.m, 12, solved,
                trials, seconds_since(t0), estimate_lwe_security(est).beta);
  }

  // --- 2: with perfect hints the instance collapses to linear algebra ----
  std::printf("\n[2] with perfect hints on every error coordinate (the full\n"
              "    RevEAL measurement), recovery is Gaussian elimination:\n");
  std::printf("%6s %6s %10s %12s\n", "n", "m", "success", "time (ms)");
  for (const std::size_t n : {16, 32, 64, 128}) {
    LweParams params;
    params.n = n;
    params.m = 2 * n;
    params.q = 132120577ULL;  // the paper's modulus
    params.sigma = 3.19;
    const SampledLwe s = sample_lwe(params, rng);
    std::vector<std::optional<std::int64_t>> hints(params.m);
    for (std::size_t i = 0; i < params.m; ++i) hints[i] = s.error[i];
    const auto t0 = std::chrono::steady_clock::now();
    const auto recovered = solve_with_perfect_hints(s.instance, hints);
    const double ms = seconds_since(t0) * 1e3;
    const bool ok = recovered.has_value() && *recovered == s.secret;
    std::printf("%6zu %6zu %10s %12.2f\n", n, params.m, ok ? "yes" : "NO", ms);
  }

  // --- 3: partial hints shrink the measured BKZ effort -------------------
  std::printf("\n[3] partial hints shrink the lattice attack (n = 10, m = 20):\n");
  std::printf("%14s %10s %12s\n", "hinted coords", "success", "time (s)");
  for (const std::size_t hinted : {0ULL, 5ULL, 10ULL, 15ULL}) {
    LweParams params;
    params.n = 10;
    params.m = 20;
    params.q = 1009;
    params.sigma = 1.5;
    const SampledLwe s = sample_lwe(params, rng);
    // Substitute the hinted samples' errors away, keep the rest for BKZ.
    LweInstance reduced = s.instance;
    for (std::size_t i = 0; i < hinted; ++i) {
      const std::int64_t fixed =
          static_cast<std::int64_t>(reduced.b[i]) - s.error[i];
      reduced.b[i] = static_cast<std::uint64_t>(
          ((fixed % static_cast<std::int64_t>(reduced.q)) +
           static_cast<std::int64_t>(reduced.q)) %
          static_cast<std::int64_t>(reduced.q));
    }
    const auto t0 = std::chrono::steady_clock::now();
    // Hinted coordinates now have zero error: the planted vector is shorter
    // and BKZ finds it faster / with smaller blocks.
    const auto recovered = primal_attack(reduced, /*block_size=*/10, /*max_tours=*/10);
    const bool ok = recovered.has_value() && *recovered == s.secret;
    std::printf("%14zu %10s %12.2f\n", hinted, ok ? "yes" : "NO", seconds_since(t0));
  }

  // --- 4: what a residual-search try buys --------------------------------
  const unsigned max_log = quick ? 14 : 17;
  const std::size_t captures = quick ? 16 : 64;
  std::printf("\n[4] single-trace residual search: share of %zu fresh n = 64 captures\n"
              "    recovered within a try budget (at most 48 searched positions):\n",
              captures);
  std::printf("%14s", "attacker");
  for (unsigned b = 0; b <= max_log; b += (b < 8 ? 4 : 3)) std::printf("   2^%-2u", b);
  std::printf("  median tries\n");
  struct Attacker {
    const char* name;
    core::CampaignConfig cfg;
  };
  std::vector<std::pair<const char*, std::size_t>> within_2_11;
  for (const Attacker& a : {Attacker{"lab-grade", bench::lab_campaign()},
                            Attacker{"default-noise", bench::default_campaign()}}) {
    const std::vector<std::size_t> tries =
        recovered_tries(a.cfg, captures, std::size_t{1} << max_log);
    std::printf("%14s", a.name);
    std::size_t at_2_11 = 0;
    for (unsigned b = 0; b <= max_log; b += (b < 8 ? 4 : 3)) {
      const auto within = static_cast<std::size_t>(
          std::upper_bound(tries.begin(), tries.end(), std::size_t{1} << b) - tries.begin());
      if (b == 11) at_2_11 = within;
      std::printf("  %5.3f", static_cast<double>(within) / static_cast<double>(captures));
    }
    if (tries.empty()) {
      std::printf("  %12s\n", "-");
    } else {
      std::printf("  %12zu\n", tries[(tries.size() - 1) / 2]);
    }
    within_2_11.emplace_back(a.name, at_2_11);
  }
  for (const auto& [name, count] : within_2_11) {
    std::printf("  %s: %zu/%zu captures recovered within 2^11 tries\n", name, count, captures);
  }

  std::printf("\nreading: hints monotonically cheapen the lattice step, and full\n"
              "hints reduce it to exact linear algebra — the laptop-scale analogue\n"
              "of Table III's 382.25 -> 12.2 bikz collapse. [4] turns Table III's\n"
              "estimated residual work (2^4.4 in the paper) into a measured one.\n");
  return 0;
}
