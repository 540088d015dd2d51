#include "seal/keys.hpp"

#include "seal/sampler.hpp"

namespace reveal::seal {

KeyGenerator::KeyGenerator(const Context& context, UniformRandomGenerator& random) {
  // SecretKeyGen: s <- R_2 (uniform ternary).
  sample_poly_ternary(secret_key_.s, random, context);

  // PublicKeyGen: a <- R_q uniform, e <- chi; pk = (-(a s + e), a).
  Poly a;
  sample_poly_uniform(a, random, context);
  Poly e = sample_error_poly(random, context);

  const auto& tables = context.fast_ntt_tables();
  const auto& moduli = context.coeff_modulus();
  Poly as;
  polyops::multiply_ntt(a, secret_key_.s, tables, as);
  Poly as_plus_e;
  polyops::add(as, e, moduli, as_plus_e);
  polyops::negate(as_plus_e, moduli, public_key_.p0);
  public_key_.p1 = std::move(a);
}

}  // namespace reveal::seal
