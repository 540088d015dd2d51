#pragma once
// Deterministic, fast pseudo-random generation for the whole project.
//
// All randomness in the reproduction flows through Xoshiro256StarStar so
// every experiment is reproducible from a single seed. The class satisfies
// the C++ UniformRandomBitGenerator requirements, so it can also drive
// <random> distributions where convenient.
//
// The per-draw members (operator(), uniform_double(), the Gaussian fast
// path) are defined here so that hot loops — the power model draws one
// Gaussian per trace sample — inline them.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace reveal::num {

namespace detail {

/// 256-layer ziggurat for the standard normal (Marsaglia & Tsang 2000),
/// built from the published r = 3.6541528853610088 and v = 0.00492867323399.
/// Layer i spans [0, x[i]) for decreasing edges x[0] > x[1] = r > ... >
/// x[256] = 0, and every layer has area v. Layer 0 is the base strip: the
/// rectangle up to r plus the tail, with virtual width x[0] = v / f(r).
/// Layer 255 is the cap.
struct ZigguratTables {
  /// Fast-path bound on the 53-bit mantissa m: m < accept[i] iff
  /// m * 2^-53 * x[i] < x[i+1], i.e. the point lies inside the layer below.
  std::array<std::uint64_t, 256> accept{};
  std::array<double, 256> scale{};  ///< x[i] * 2^-53
  std::array<double, 257> f{};      ///< exp(-x[i]^2 / 2); f[256] = 1
};

[[nodiscard]] ZigguratTables make_ziggurat_tables() noexcept;

/// Built on first use; the function-local static makes concurrent first
/// use from several threads safe.
[[nodiscard]] inline const ZigguratTables& ziggurat_tables() noexcept {
  static const ZigguratTables tables = make_ziggurat_tables();
  return tables;
}

}  // namespace detail

/// xoshiro256** by Blackman & Vigna — small, fast, high-quality PRNG.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  /// Seeds the state from a single 64-bit seed via SplitMix64 expansion.
  explicit Xoshiro256StarStar(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

  /// Next 64 uniformly random bits.
  result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) without modulo bias (bound > 0).
  std::uint64_t uniform_below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1): 53 high bits with full double precision.
  double uniform_double() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Standard normal variate (256-layer ziggurat). One 64-bit draw gives
  /// the layer (bits 0-7), the sign (bit 8) and a 53-bit mantissa (bits
  /// 11-63); disjoint bits, so layer and value are uncorrelated (Doornik
  /// 2005). About 98.5% of draws end in one compare and one multiply; the
  /// wedges and the tail take the out-of-line slow path.
  double gaussian() noexcept {
    const std::uint64_t bits = (*this)();
    const detail::ZigguratTables& t = detail::ziggurat_tables();
    const std::size_t layer = bits & 0xFF;
    const std::uint64_t mantissa = bits >> 11;
    if (mantissa < t.accept[layer]) [[likely]]
      return with_sign(static_cast<double>(mantissa) * t.scale[layer], bits);
    return gaussian_slow(bits);
  }

  /// Normal variate with the given mean and standard deviation.
  double gaussian(double mean, double stddev) noexcept { return mean + stddev * gaussian(); }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) noexcept;

  /// Jump function: advances the state by 2^128 steps (for parallel streams).
  void jump() noexcept;

  /// Derives an independent child generator (seeded from this stream).
  Xoshiro256StarStar fork() noexcept;

 private:
  /// Gives the non-negative `x` the sign held in bit 8 of `bits`, without
  /// a branch.
  static double with_sign(double x, std::uint64_t bits) noexcept {
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^
                                 ((bits << 55) & (std::uint64_t{1} << 63)));
  }

  /// Wedge and tail of the ziggurat, continuing from the rejected draw.
  double gaussian_slow(std::uint64_t bits) noexcept;

  std::array<std::uint64_t, 4> state_{};
};

/// SplitMix64 step — used for seed expansion; exposed for tests.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

}  // namespace reveal::num
