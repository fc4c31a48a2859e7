// Arbitrary-precision signed integers.
//
// Edge weights in fractional matchings are exact rationals (see
// rational.hpp); their numerators and denominators can grow with the number
// of communication rounds (e.g. repeated halving yields denominators 2^k for
// k up to Θ(Δ)), so fixed-width integers are not safe for the parameter
// ranges the benchmarks sweep. Rational keeps word-sized weights in two
// inline int64s and does their arithmetic itself; BigInt is its spill tier,
// used once a reduced part outgrows 63 bits, and the parser behind
// Rational::from_string. BigInt is a sign-magnitude integer with a two-tier
// representation of its own:
//
//   * small: the magnitude lives inline in a single uint64 — no heap
//     allocation, and add/sub/mul/div/gcd/compare run as one or two machine
//     operations;
//   * large: the magnitude spills into little-endian uint32 limbs with
//     schoolbook arithmetic (operands stay tens of limbs at most, so
//     asymptotically fancy algorithms would be wasted complexity).
//
// The representation is canonical — every value that fits 64 bits is stored
// small — so structural equality is value equality and comparisons
// short-circuit on the representation tier.
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace ldlb {

/// Arbitrary-precision signed integer (sign + magnitude; inline uint64
/// magnitude for small values, uint32 limbs for large ones).
///
/// Invariants: a magnitude that fits 64 bits is always stored inline
/// (`limbs_` empty); a spilled magnitude has at least three limbs and no
/// trailing zero limbs; zero is inline with `negative_ == false`.
class BigInt {
 public:
  /// Zero.
  BigInt() = default;

  /// Conversion from a machine integer. Inline: Rational's hash and its
  /// BigInt fallback convert word-tier parts through it, so this must
  /// compile down to two register moves.
  BigInt(std::int64_t value)  // NOLINT(google-explicit-constructor)
      : negative_(value < 0) {
    // Avoid overflow on INT64_MIN by working in uint64.
    small_ = negative_ ? ~static_cast<std::uint64_t>(value) + 1
                       : static_cast<std::uint64_t>(value);
  }

  /// Parses a decimal string, optionally signed ("-123", "+7", "0").
  /// Throws ContractViolation on malformed input.
  static BigInt from_string(std::string_view text);

  /// True iff the value is zero.
  [[nodiscard]] bool is_zero() const { return small_ == 0 && limbs_.empty(); }
  /// True iff the value is strictly negative.
  [[nodiscard]] bool is_negative() const { return negative_; }
  /// Sign as -1, 0 or +1.
  [[nodiscard]] int sign() const {
    return is_zero() ? 0 : (negative_ ? -1 : 1);
  }

  /// Absolute value.
  [[nodiscard]] BigInt abs() const;
  /// Arithmetic negation.
  [[nodiscard]] BigInt negated() const;

  BigInt& operator+=(const BigInt& rhs);
  BigInt& operator-=(const BigInt& rhs);
  BigInt& operator*=(const BigInt& rhs);
  /// Truncated division (rounds toward zero), like C++ integer division.
  BigInt& operator/=(const BigInt& rhs);
  /// Remainder matching truncated division: (a/b)*b + a%b == a.
  BigInt& operator%=(const BigInt& rhs);

  friend BigInt operator+(BigInt lhs, const BigInt& rhs) { return lhs += rhs; }
  friend BigInt operator-(BigInt lhs, const BigInt& rhs) { return lhs -= rhs; }
  friend BigInt operator*(BigInt lhs, const BigInt& rhs) { return lhs *= rhs; }
  friend BigInt operator/(BigInt lhs, const BigInt& rhs) { return lhs /= rhs; }
  friend BigInt operator%(BigInt lhs, const BigInt& rhs) { return lhs %= rhs; }
  BigInt operator-() const { return negated(); }

  // Canonical representation makes structural equality value equality; the
  // inline word is compared first so mismatches short-circuit without
  // touching the limb vectors.
  friend bool operator==(const BigInt& lhs, const BigInt& rhs) {
    return lhs.small_ == rhs.small_ && lhs.negative_ == rhs.negative_ &&
           lhs.limbs_ == rhs.limbs_;
  }
  friend std::strong_ordering operator<=>(const BigInt& lhs,
                                          const BigInt& rhs);

  /// Greatest common divisor; result is non-negative. gcd(0,0) == 0.
  /// Small operands use binary GCD on machine words.
  static BigInt gcd(BigInt a, BigInt b);

  /// 2^k for k >= 0.
  static BigInt pow2(unsigned k);

  /// Decimal representation.
  [[nodiscard]] std::string to_string() const;
  /// Appends the decimal representation to `out`.
  void append_to(std::string& out) const;

  /// Value as int64 if it fits; throws ContractViolation otherwise.
  [[nodiscard]] std::int64_t to_int64() const;
  /// True iff the value fits into int64.
  [[nodiscard]] bool fits_int64() const;

  /// Hash suitable for unordered containers.
  [[nodiscard]] std::size_t hash() const;

 private:
  /// True iff the magnitude is stored inline.
  [[nodiscard]] bool is_small() const { return limbs_.empty(); }

  /// Signed value from an inline magnitude (normalises -0).
  static BigInt from_magnitude(bool negative, std::uint64_t magnitude);

  /// The magnitude as a limb vector regardless of tier (copies when small).
  [[nodiscard]] std::vector<std::uint32_t> magnitude_limbs() const;

  /// Installs a limb magnitude, collapsing back to the inline tier when it
  /// fits; fixes the sign of zero.
  void set_magnitude(std::vector<std::uint32_t> limbs);

  // Magnitude helpers ignore signs.
  static std::vector<std::uint32_t> mag_add(const std::vector<std::uint32_t>& a,
                                            const std::vector<std::uint32_t>& b);
  // Requires |a| >= |b|.
  static std::vector<std::uint32_t> mag_sub(const std::vector<std::uint32_t>& a,
                                            const std::vector<std::uint32_t>& b);
  static std::vector<std::uint32_t> mag_mul(const std::vector<std::uint32_t>& a,
                                            const std::vector<std::uint32_t>& b);
  static int mag_cmp(const std::vector<std::uint32_t>& a,
                     const std::vector<std::uint32_t>& b);
  // Long division of magnitudes; returns {quotient, remainder}.
  static std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>
  mag_divmod(const std::vector<std::uint32_t>& a,
             const std::vector<std::uint32_t>& b);
  // Division by a word divisor (d != 0); returns {quotient, remainder}.
  static std::pair<std::vector<std::uint32_t>, std::uint64_t> mag_divmod_word(
      const std::vector<std::uint32_t>& a, std::uint64_t d);
  static void trim(std::vector<std::uint32_t>& limbs);

  std::uint64_t small_ = 0;           // inline magnitude when limbs_ is empty
  std::vector<std::uint32_t> limbs_;  // little-endian spilled magnitude
  bool negative_ = false;             // false when zero
};

std::ostream& operator<<(std::ostream& os, const BigInt& value);

}  // namespace ldlb

template <>
struct std::hash<ldlb::BigInt> {
  std::size_t operator()(const ldlb::BigInt& v) const noexcept {
    return v.hash();
  }
};
