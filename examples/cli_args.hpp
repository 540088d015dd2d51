#pragma once
// Strict positional-argument parsing for the example CLIs: a number must be
// the whole argument and lie in its range, so "8x", "-5" or "abc" is
// rejected with a usage line instead of being read as a prefix, wrapped
// around, or thrown at.

#include <charconv>
#include <cstring>
#include <system_error>

namespace reveal::examples {

/// Parses all of `text` as a T in [lo, hi] into `out`; false (and `out`
/// untouched) on trailing characters, a sign an unsigned T cannot take,
/// overflow, NaN or a value out of range.
template <typename T>
[[nodiscard]] bool parse_arg(const char* text, T lo, T hi, T& out) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) return false;
  out = value;
  return true;
}

}  // namespace reveal::examples
