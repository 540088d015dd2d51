#include "seal/biguint.hpp"

#include <algorithm>
#include <stdexcept>

namespace reveal::seal {

namespace {
__extension__ typedef unsigned __int128 u128;
}

BigUInt::BigUInt(std::uint64_t value) {
  if (value != 0) limbs_.push_back(value);
}

void BigUInt::normalize() noexcept {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

std::size_t BigUInt::bit_count() const noexcept {
  if (limbs_.empty()) return 0;
  std::uint64_t top = limbs_.back();
  std::size_t bits = (limbs_.size() - 1) * 64;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigUInt::bit(std::size_t i) const noexcept {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

std::string BigUInt::to_string() const {
  if (is_zero()) return "0";
  BigUInt tmp = *this;
  std::string digits;
  const BigUInt ten(10);
  while (!tmp.is_zero()) {
    auto [q, r] = divmod(tmp, ten);
    digits.push_back(static_cast<char>('0' + r.low_word()));
    tmp = std::move(q);
  }
  std::reverse(digits.begin(), digits.end());
  return digits;
}

BigUInt& BigUInt::operator+=(const BigUInt& rhs) {
  limbs_.resize(std::max(limbs_.size(), rhs.limbs_.size()), 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t addend = i < rhs.limbs_.size() ? rhs.limbs_[i] : 0;
    const u128 sum = static_cast<u128>(limbs_[i]) + addend + carry;
    limbs_[i] = static_cast<std::uint64_t>(sum);
    carry = static_cast<std::uint64_t>(sum >> 64);
  }
  if (carry != 0) limbs_.push_back(carry);
  return *this;
}

BigUInt& BigUInt::operator-=(const BigUInt& rhs) {
  if (compare(rhs) < 0) throw std::domain_error("BigUInt subtraction underflow");
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t subtrahend = i < rhs.limbs_.size() ? rhs.limbs_[i] : 0;
    const u128 lhs_ext = static_cast<u128>(limbs_[i]);
    const u128 rhs_ext = static_cast<u128>(subtrahend) + borrow;
    if (lhs_ext >= rhs_ext) {
      limbs_[i] = static_cast<std::uint64_t>(lhs_ext - rhs_ext);
      borrow = 0;
    } else {
      limbs_[i] = static_cast<std::uint64_t>((static_cast<u128>(1) << 64) + lhs_ext - rhs_ext);
      borrow = 1;
    }
  }
  normalize();
  return *this;
}

BigUInt& BigUInt::operator<<=(std::size_t bits) {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  limbs_.insert(limbs_.begin(), limb_shift, 0);
  if (bit_shift != 0) {
    std::uint64_t carry = 0;
    for (std::size_t i = limb_shift; i < limbs_.size(); ++i) {
      const std::uint64_t next_carry = limbs_[i] >> (64 - bit_shift);
      limbs_[i] = (limbs_[i] << bit_shift) | carry;
      carry = next_carry;
    }
    if (carry != 0) limbs_.push_back(carry);
  }
  return *this;
}

BigUInt& BigUInt::operator>>=(std::size_t bits) {
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) {
    limbs_.clear();
    return *this;
  }
  limbs_.erase(limbs_.begin(), limbs_.begin() + static_cast<std::ptrdiff_t>(limb_shift));
  if (bit_shift != 0) {
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
      limbs_[i] >>= bit_shift;
      if (i + 1 < limbs_.size()) limbs_[i] |= limbs_[i + 1] << (64 - bit_shift);
    }
  }
  normalize();
  return *this;
}

BigUInt operator*(const BigUInt& a, std::uint64_t b) {
  BigUInt out;
  if (a.is_zero() || b == 0) return out;
  out.limbs_.assign(a.limbs_.size() + 1, 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    const u128 prod = static_cast<u128>(a.limbs_[i]) * b + carry;
    out.limbs_[i] = static_cast<std::uint64_t>(prod);
    carry = static_cast<std::uint64_t>(prod >> 64);
  }
  out.limbs_[a.limbs_.size()] = carry;
  out.normalize();
  return out;
}

BigUInt operator*(const BigUInt& a, const BigUInt& b) {
  BigUInt out;
  if (a.is_zero() || b.is_zero()) return out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      const u128 cur = static_cast<u128>(a.limbs_[i]) * b.limbs_[j] +
                       out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    out.limbs_[i + b.limbs_.size()] += carry;
  }
  out.normalize();
  return out;
}

int BigUInt::compare(const BigUInt& rhs) const noexcept {
  if (limbs_.size() != rhs.limbs_.size())
    return limbs_.size() < rhs.limbs_.size() ? -1 : 1;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != rhs.limbs_[i]) return limbs_[i] < rhs.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigUInt::DivResult BigUInt::divmod(const BigUInt& numerator, const BigUInt& denominator) {
  if (denominator.is_zero()) throw std::domain_error("BigUInt division by zero");
  DivResult result;
  if (numerator.compare(denominator) < 0) {
    result.remainder = numerator;
    return result;
  }
  // Binary long division: adequate for the ≤256-bit values in decryption.
  const std::size_t nbits = numerator.bit_count();
  BigUInt remainder;
  BigUInt quotient;
  quotient.limbs_.assign((nbits + 63) / 64, 0);
  for (std::size_t i = nbits; i-- > 0;) {
    remainder <<= 1;
    if (numerator.bit(i)) {
      if (remainder.limbs_.empty()) remainder.limbs_.push_back(1);
      else remainder.limbs_[0] |= 1;
    }
    if (remainder.compare(denominator) >= 0) {
      remainder -= denominator;
      quotient.limbs_[i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }
  quotient.normalize();
  result.quotient = std::move(quotient);
  result.remainder = std::move(remainder);
  return result;
}

std::uint64_t BigUInt::mod_word(std::uint64_t m) const {
  if (m == 0) throw std::domain_error("BigUInt::mod_word: division by zero");
  u128 acc = 0;
  for (auto it = limbs_.rbegin(); it != limbs_.rend(); ++it) {
    acc = ((acc << 64) | *it) % m;
  }
  return static_cast<std::uint64_t>(acc);
}

}  // namespace reveal::seal
