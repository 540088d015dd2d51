// LWE-with-hints security estimator CLI — the C++ counterpart of the
// Dachman-Soled et al. framework as used in paper §IV-C.
//
//   ./estimate_security [n] [log2_q] [sigma] [perfect_hints] [posterior_variance]
//
// Prints the bikz / bit-security of the (hinted) instance. Defaults to the
// paper's SEAL-128 parameter set.

#include <cmath>
#include <cstdio>

#include "cli_args.hpp"
#include "lwe/dbdd.hpp"

using namespace reveal::lwe;
using reveal::examples::parse_arg;

int main(int argc, char** argv) {
  std::size_t n = 1024;
  double log2_q = std::log2(132120577.0);
  double sigma = 3.2;
  std::size_t perfect = 0;
  double post_var = 0.0;
  // Perfect hints fix error coordinates, so at most n of them.
  const bool ok = argc <= 6 &&
                  (argc <= 1 || parse_arg<std::size_t>(argv[1], 1, 65536, n)) &&
                  (argc <= 2 || parse_arg(argv[2], 1.0, 1000.0, log2_q)) &&
                  (argc <= 3 || parse_arg(argv[3], 1e-6, 1e6, sigma)) &&
                  (argc <= 4 || parse_arg<std::size_t>(argv[4], 0, n, perfect)) &&
                  (argc <= 5 || parse_arg(argv[5], 0.0, 1e12, post_var));
  if (!ok) {
    std::fprintf(stderr,
                 "usage: %s [n 1..65536] [log2_q 1..1000] [sigma 1e-6..1e6] "
                 "[perfect_hints 0..n] [posterior_variance 0..1e12]\n",
                 argv[0]);
    return 64;
  }

  DbddParams params;
  params.secret_dim = n;
  params.error_dim = n;
  params.q = std::exp2(log2_q);
  params.secret_variance = sigma * sigma;
  params.error_variance = sigma * sigma;

  std::printf("LWE instance: n = m = %zu, log2(q) = %.2f, sigma = %.2f\n", n, log2_q,
              sigma);

  const SecurityEstimate base = estimate_lwe_security(params);
  std::printf("  no hints      : %8.2f bikz  = %7.2f bits  (dim %zu)\n", base.beta,
              base.bits, base.dim);

  if (perfect > 0 || post_var > 0.0) {
    DbddEstimator est(params);
    if (perfect > 0) est.integrate_perfect_error_hints(perfect);
    if (post_var > 0.0) {
      const std::size_t rest = est.live_error_coords();
      est.integrate_posterior_error_hints(post_var, rest);
    }
    const SecurityEstimate hinted = est.estimate();
    std::printf("  with hints    : %8.2f bikz  = %7.2f bits  (dim %zu; %zu perfect",
                hinted.beta, hinted.bits, hinted.dim, perfect);
    if (post_var > 0.0) std::printf(", rest at variance %.3g", post_var);
    std::printf(")\n");
  } else {
    std::printf("\n  (pass perfect-hint count / posterior variance to add hints, e.g.\n"
                "   ./estimate_security 1024 26.98 3.2 1024 0   -> paper Table III\n"
                "   ./estimate_security 1024 26.98 3.2 128 3.72 -> paper Table IV)\n");
  }
  std::printf("\nconvention: bits = bikz / %.4f (paper footnote 3: 382.25 bikz = 128 bits)\n",
              kBikzPerBit);
  return 0;
}
