#include "numeric/rng.hpp"

#include <cmath>

namespace reveal::num {

namespace {
constexpr double kZigguratR = 3.6541528853610088;  // x[1]: where the tail starts
constexpr double kZigguratV = 0.00492867323399;    // area of every layer
double unnormalized_pdf(double x) { return std::exp(-0.5 * x * x); }
}  // namespace

detail::ZigguratTables detail::make_ziggurat_tables() noexcept {
  std::array<double, 257> x{};
  x[0] = kZigguratV / unnormalized_pdf(kZigguratR);
  x[1] = kZigguratR;
  // Equal areas: x[i] * (f(x[i+1]) - f(x[i])) = v.
  for (std::size_t i = 1; i + 1 < 256; ++i)
    x[i + 1] = std::sqrt(-2.0 * std::log(kZigguratV / x[i] + unnormalized_pdf(x[i])));
  x[256] = 0.0;
  ZigguratTables t;
  for (std::size_t i = 0; i < 257; ++i) t.f[i] = unnormalized_pdf(x[i]);
  for (std::size_t i = 0; i < 256; ++i) {
    t.accept[i] = static_cast<std::uint64_t>(std::ceil(std::ldexp(x[i + 1] / x[i], 53)));
    t.scale[i] = std::ldexp(x[i], -53);
  }
  return t;
}

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
  // All-zero state is invalid for xoshiro; SplitMix64 cannot produce four
  // zero outputs in a row for any seed, but guard anyway.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

std::uint64_t Xoshiro256StarStar::uniform_below(std::uint64_t bound) noexcept {
  // Lemire-style rejection to avoid modulo bias.
  if (bound <= 1) return 0;
  const std::uint64_t threshold = (~bound + 1) % bound;  // (2^64 - bound) mod bound
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Xoshiro256StarStar::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_below(span));
}

double Xoshiro256StarStar::gaussian_slow(std::uint64_t bits) noexcept {
  const detail::ZigguratTables& t = detail::ziggurat_tables();
  for (;;) {
    const std::size_t layer = bits & 0xFF;
    const std::uint64_t mantissa = bits >> 11;
    const double x = static_cast<double>(mantissa) * t.scale[layer];
    if (mantissa < t.accept[layer]) return with_sign(x, bits);
    if (layer == 0) {
      // Beyond r in the base strip: sample the tail (Marsaglia 1964). The
      // uniforms are taken from (0, 1] so both logs are finite.
      double tail = 0.0;
      double y = 0.0;
      do {
        tail = -std::log(1.0 - uniform_double()) / kZigguratR;
        y = -std::log(1.0 - uniform_double());
      } while (y + y < tail * tail);
      return with_sign(kZigguratR + tail, bits);
    }
    // Wedge between x[layer+1] and x[layer]: accept under the curve.
    const double height = t.f[layer] + (t.f[layer + 1] - t.f[layer]) * uniform_double();
    if (height < unnormalized_pdf(x)) return with_sign(x, bits);
    bits = (*this)();
  }
}

bool Xoshiro256StarStar::bernoulli(double p) noexcept {
  return uniform_double() < p;
}

void Xoshiro256StarStar::jump() noexcept {
  static constexpr std::array<std::uint64_t, 4> kJump = {
      0x180EC6D33CFD0ABAULL, 0xD5A61266F0C9392CULL,
      0xA9582618E03FC9AAULL, 0x39ABDC4529B1661CULL};
  std::array<std::uint64_t, 4> acc{};
  for (const std::uint64_t word : kJump) {
    for (int b = 0; b < 64; ++b) {
      if (word & (std::uint64_t{1} << b)) {
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] ^= state_[i];
      }
      (*this)();
    }
  }
  state_ = acc;
}

Xoshiro256StarStar Xoshiro256StarStar::fork() noexcept {
  return Xoshiro256StarStar{(*this)()};
}

}  // namespace reveal::num
