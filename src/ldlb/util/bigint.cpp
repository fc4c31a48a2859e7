#include "ldlb/util/bigint.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <limits>
#include <ostream>

#include "ldlb/util/alloc_guard.hpp"
#include "ldlb/util/error.hpp"

namespace ldlb {

namespace {

constexpr std::uint64_t kBase = std::uint64_t{1} << 32;

// Binary GCD on machine words: no divisions, only shifts and subtractions.
std::uint64_t gcd_word(std::uint64_t a, std::uint64_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  const int shift = __builtin_ctzll(a | b);
  a >>= __builtin_ctzll(a);
  do {
    b >>= __builtin_ctzll(b);
    if (a > b) std::swap(a, b);
    b -= a;
  } while (b != 0);
  return a << shift;
}

}  // namespace

BigInt BigInt::from_magnitude(bool negative, std::uint64_t magnitude) {
  BigInt r;
  r.small_ = magnitude;
  r.negative_ = negative && magnitude != 0;
  return r;
}

std::vector<std::uint32_t> BigInt::magnitude_limbs() const {
  if (!is_small()) return limbs_;
  std::vector<std::uint32_t> out;
  if (small_ != 0) out.push_back(static_cast<std::uint32_t>(small_));
  if (small_ >> 32 != 0) out.push_back(static_cast<std::uint32_t>(small_ >> 32));
  return out;
}

void BigInt::set_magnitude(std::vector<std::uint32_t> limbs) {
  trim(limbs);
  if (limbs.size() <= 2) {
    small_ = limbs.empty()
                 ? 0
                 : (limbs.size() == 2
                        ? (static_cast<std::uint64_t>(limbs[1]) << 32) | limbs[0]
                        : limbs[0]);
    limbs_.clear();
  } else {
    // The one growth point of exact arithmetic: observing the thread-local
    // allocation budget here lets the env-fault tests starve a run's BigInt
    // limbs deterministically (util/alloc_guard.hpp).
    charge_alloc(limbs.size() * sizeof(std::uint32_t));
    small_ = 0;
    limbs_ = std::move(limbs);
  }
  if (is_zero()) negative_ = false;
}

BigInt BigInt::from_string(std::string_view text) {
  LDLB_REQUIRE_MSG(!text.empty(), "empty string is not a number");
  std::size_t i = 0;
  bool neg = false;
  if (text[0] == '-' || text[0] == '+') {
    neg = text[0] == '-';
    i = 1;
  }
  LDLB_REQUIRE_MSG(i < text.size(), "sign without digits: " << text);
  BigInt result;
  // Consume up to 9 digits per step so the accumulator multiplications stay
  // on the inline fast path until the value genuinely outgrows it.
  while (i < text.size()) {
    std::uint64_t chunk = 0;
    std::uint64_t scale = 1;
    for (int d = 0; d < 9 && i < text.size(); ++d, ++i) {
      LDLB_REQUIRE_MSG(std::isdigit(static_cast<unsigned char>(text[i])),
                       "malformed integer literal: " << text);
      chunk = chunk * 10 + static_cast<std::uint64_t>(text[i] - '0');
      scale *= 10;
    }
    result *= BigInt{static_cast<std::int64_t>(scale)};
    result += BigInt{static_cast<std::int64_t>(chunk)};
  }
  if (neg && !result.is_zero()) result.negative_ = true;
  return result;
}

BigInt BigInt::abs() const {
  BigInt r = *this;
  r.negative_ = false;
  return r;
}

BigInt BigInt::negated() const {
  BigInt r = *this;
  if (!r.is_zero()) r.negative_ = !r.negative_;
  return r;
}

void BigInt::trim(std::vector<std::uint32_t>& limbs) {
  while (!limbs.empty() && limbs.back() == 0) limbs.pop_back();
}

int BigInt::mag_cmp(const std::vector<std::uint32_t>& a,
                    const std::vector<std::uint32_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::vector<std::uint32_t> BigInt::mag_add(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out;
  out.reserve(std::max(a.size(), b.size()) + 1);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    std::uint64_t sum = carry;
    if (i < a.size()) sum += a[i];
    if (i < b.size()) sum += b[i];
    out.push_back(static_cast<std::uint32_t>(sum & 0xffffffffu));
    carry = sum >> 32;
  }
  if (carry != 0) out.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

std::vector<std::uint32_t> BigInt::mag_sub(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  LDLB_ENSURE(mag_cmp(a, b) >= 0);
  std::vector<std::uint32_t> out;
  out.reserve(a.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a[i]) - borrow -
                        (i < b.size() ? static_cast<std::int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.push_back(static_cast<std::uint32_t>(diff));
  }
  trim(out);
  return out;
}

std::vector<std::uint32_t> BigInt::mag_mul(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<std::uint32_t> out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      std::uint64_t cur = static_cast<std::uint64_t>(a[i]) * b[j] +
                          out[i + j] + carry;
      out[i + j] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    std::size_t k = i + b.size();
    while (carry != 0) {
      std::uint64_t cur = out[k] + carry;
      out[k] = static_cast<std::uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  trim(out);
  return out;
}

std::pair<std::vector<std::uint32_t>, std::uint64_t> BigInt::mag_divmod_word(
    const std::vector<std::uint32_t>& a, std::uint64_t d) {
  LDLB_REQUIRE_MSG(d != 0, "division by zero");
  std::vector<std::uint32_t> quotient(a.size(), 0);
  std::uint64_t rem = 0;
  for (std::size_t i = a.size(); i-- > 0;) {
    // rem < d <= 2^64, so (rem << 32) | limb fits 128 bits and the partial
    // quotient fits one limb.
    unsigned __int128 cur =
        (static_cast<unsigned __int128>(rem) << 32) | a[i];
    quotient[i] = static_cast<std::uint32_t>(cur / d);
    rem = static_cast<std::uint64_t>(cur % d);
  }
  trim(quotient);
  return {std::move(quotient), rem};
}

std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>
BigInt::mag_divmod(const std::vector<std::uint32_t>& a,
                   const std::vector<std::uint32_t>& b) {
  LDLB_REQUIRE_MSG(!b.empty(), "division by zero");
  if (mag_cmp(a, b) < 0) return {{}, a};
  if (b.size() <= 2) {
    const std::uint64_t d =
        b.size() == 2 ? (static_cast<std::uint64_t>(b[1]) << 32) | b[0] : b[0];
    auto [q, r] = mag_divmod_word(a, d);
    std::vector<std::uint32_t> rem;
    if (r != 0) rem.push_back(static_cast<std::uint32_t>(r));
    if (r >> 32 != 0) rem.push_back(static_cast<std::uint32_t>(r >> 32));
    return {std::move(q), std::move(rem)};
  }

  // Bit-by-bit long division: simple and fully portable. Multi-limb
  // divisors are rare in this library (weights stay word-sized), so
  // O(bits * limbs) is fine.
  std::vector<std::uint32_t> quotient(a.size(), 0);
  std::vector<std::uint32_t> remainder;
  for (std::size_t bit = a.size() * 32; bit-- > 0;) {
    // remainder = remainder * 2 + bit_of(a, bit)
    std::uint32_t carry = (a[bit / 32] >> (bit % 32)) & 1u;
    for (std::size_t i = 0; i < remainder.size(); ++i) {
      std::uint32_t next_carry = remainder[i] >> 31;
      remainder[i] = (remainder[i] << 1) | carry;
      carry = next_carry;
    }
    if (carry != 0) remainder.push_back(carry);
    trim(remainder);
    if (mag_cmp(remainder, b) >= 0) {
      remainder = mag_sub(remainder, b);
      quotient[bit / 32] |= (std::uint32_t{1} << (bit % 32));
    }
  }
  trim(quotient);
  return {quotient, remainder};
}

BigInt& BigInt::operator+=(const BigInt& rhs) {
  if (is_small() && rhs.is_small()) {
    if (negative_ == rhs.negative_) {
      std::uint64_t sum = 0;
      if (!__builtin_add_overflow(small_, rhs.small_, &sum)) {
        small_ = sum;
        if (small_ == 0) negative_ = false;
        return *this;
      }
      // Magnitude overflowed one word: fall through to the limb path.
    } else {
      if (small_ >= rhs.small_) {
        small_ -= rhs.small_;
      } else {
        small_ = rhs.small_ - small_;
        negative_ = rhs.negative_;
      }
      if (small_ == 0) negative_ = false;
      return *this;
    }
  }
  std::vector<std::uint32_t> a = magnitude_limbs();
  std::vector<std::uint32_t> b = rhs.magnitude_limbs();
  if (negative_ == rhs.negative_) {
    set_magnitude(mag_add(a, b));
  } else if (mag_cmp(a, b) >= 0) {
    set_magnitude(mag_sub(a, b));
  } else {
    negative_ = rhs.negative_;
    set_magnitude(mag_sub(b, a));
  }
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& rhs) { return *this += rhs.negated(); }

BigInt& BigInt::operator*=(const BigInt& rhs) {
  negative_ = negative_ != rhs.negative_;
  if (is_small() && rhs.is_small()) {
    const unsigned __int128 prod =
        static_cast<unsigned __int128>(small_) * rhs.small_;
    if (prod <= std::numeric_limits<std::uint64_t>::max()) {
      small_ = static_cast<std::uint64_t>(prod);
      if (small_ == 0) negative_ = false;
      return *this;
    }
    set_magnitude({static_cast<std::uint32_t>(prod),
                   static_cast<std::uint32_t>(prod >> 32),
                   static_cast<std::uint32_t>(prod >> 64),
                   static_cast<std::uint32_t>(prod >> 96)});
    return *this;
  }
  set_magnitude(mag_mul(magnitude_limbs(), rhs.magnitude_limbs()));
  return *this;
}

BigInt& BigInt::operator/=(const BigInt& rhs) {
  LDLB_REQUIRE_MSG(!rhs.is_zero(), "division by zero");
  negative_ = negative_ != rhs.negative_;
  if (is_small() && rhs.is_small()) {
    small_ /= rhs.small_;
    if (small_ == 0) negative_ = false;
    return *this;
  }
  if (rhs.is_small()) {
    set_magnitude(mag_divmod_word(magnitude_limbs(), rhs.small_).first);
    return *this;
  }
  set_magnitude(mag_divmod(magnitude_limbs(), rhs.magnitude_limbs()).first);
  return *this;
}

BigInt& BigInt::operator%=(const BigInt& rhs) {
  LDLB_REQUIRE_MSG(!rhs.is_zero(), "division by zero");
  // Sign of the remainder follows the dividend (truncated division).
  if (is_small() && rhs.is_small()) {
    small_ %= rhs.small_;
    if (small_ == 0) negative_ = false;
    return *this;
  }
  if (rhs.is_small()) {
    const std::uint64_t r =
        mag_divmod_word(magnitude_limbs(), rhs.small_).second;
    const bool neg = negative_;
    limbs_.clear();
    small_ = r;
    negative_ = neg && r != 0;
    return *this;
  }
  set_magnitude(mag_divmod(magnitude_limbs(), rhs.magnitude_limbs()).second);
  return *this;
}

std::strong_ordering operator<=>(const BigInt& lhs, const BigInt& rhs) {
  if (lhs.negative_ != rhs.negative_) {
    return lhs.negative_ ? std::strong_ordering::less
                         : std::strong_ordering::greater;
  }
  int mag = 0;
  if (lhs.is_small() && rhs.is_small()) {
    mag = lhs.small_ == rhs.small_ ? 0 : (lhs.small_ < rhs.small_ ? -1 : 1);
  } else if (lhs.is_small()) {
    mag = -1;  // any spilled magnitude exceeds one word
  } else if (rhs.is_small()) {
    mag = 1;
  } else {
    mag = BigInt::mag_cmp(lhs.limbs_, rhs.limbs_);
  }
  if (lhs.negative_) mag = -mag;
  if (mag < 0) return std::strong_ordering::less;
  if (mag > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  a.negative_ = false;
  b.negative_ = false;
  // Euclid steps shrink spilled operands to word size fast; binary GCD
  // finishes on machine words without any division.
  while (!a.is_small() || !b.is_small()) {
    if (b.is_zero()) return a;
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return from_magnitude(false, gcd_word(a.small_, b.small_));
}

BigInt BigInt::pow2(unsigned k) {
  if (k < 64) return from_magnitude(false, std::uint64_t{1} << k);
  BigInt r;
  std::vector<std::uint32_t> limbs(k / 32 + 1, 0);
  limbs[k / 32] = std::uint32_t{1} << (k % 32);
  r.set_magnitude(std::move(limbs));
  return r;
}

std::string BigInt::to_string() const {
  if (is_zero()) return "0";
  if (is_small()) {
    std::string digits = std::to_string(small_);
    return negative_ ? "-" + digits : digits;
  }
  // Peel nine decimal digits per word division.
  constexpr std::uint64_t kChunk = 1000000000;
  std::vector<std::uint32_t> mag = limbs_;
  std::string digits;
  while (!mag.empty()) {
    auto [q, r] = mag_divmod_word(mag, kChunk);
    mag = std::move(q);
    if (mag.empty()) {
      std::string head = std::to_string(r);
      digits.insert(0, head);
    } else {
      std::string part = std::to_string(r);
      digits.insert(0, std::string(9 - part.size(), '0') + part);
    }
  }
  return negative_ ? "-" + digits : digits;
}

void BigInt::append_to(std::string& out) const {
  if (!is_small()) {
    out += to_string();
    return;
  }
  if (negative_) out += '-';
  char digits[20];
  const auto result = std::to_chars(digits, digits + sizeof digits, small_);
  out.append(digits, result.ptr);
}

bool BigInt::fits_int64() const {
  if (!is_small()) return false;
  return negative_ ? small_ <= (std::uint64_t{1} << 63)
                   : small_ < (std::uint64_t{1} << 63);
}

std::int64_t BigInt::to_int64() const {
  LDLB_REQUIRE_MSG(fits_int64(), "BigInt does not fit into int64: "
                                     << to_string());
  return negative_ ? -static_cast<std::int64_t>(small_ - 1) - 1
                   : static_cast<std::int64_t>(small_);
}

std::size_t BigInt::hash() const {
  std::size_t h = negative_ ? 0x9e3779b97f4a7c15ull : 0;
  auto mix = [&h](std::uint32_t limb) {
    h ^= limb + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  if (is_small()) {
    // Mirror the limb walk so equal values hash equally however produced.
    if (small_ != 0) mix(static_cast<std::uint32_t>(small_));
    if (small_ >> 32 != 0) mix(static_cast<std::uint32_t>(small_ >> 32));
  } else {
    for (std::uint32_t limb : limbs_) mix(limb);
  }
  return h;
}

std::ostream& operator<<(std::ostream& os, const BigInt& value) {
  return os << value.to_string();
}

}  // namespace ldlb
