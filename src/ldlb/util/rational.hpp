// Exact rational numbers over BigInt.
//
// Fractional matching weights are rationals in [0, 1]. The lower-bound
// adversary (Section 4 of the paper) needs *exact* equality tests between
// weights produced in different graphs — floats would make the propagation
// principle (Fact 3) unsound — so all weights in the library are Rational.
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "ldlb/util/bigint.hpp"

namespace ldlb {

/// Exact rational number, always kept in lowest terms with a positive
/// denominator. Zero is 0/1.
class Rational {
 public:
  /// Zero.
  Rational() : num_(0), den_(1) {}
  /// Integer value.
  Rational(std::int64_t value) : num_(value), den_(1) {}  // NOLINT
  /// num/den; den must be non-zero.
  Rational(BigInt num, BigInt den);
  /// num/den from machine integers; den must be non-zero.
  Rational(std::int64_t num, std::int64_t den)
      : Rational(BigInt{num}, BigInt{den}) {}

  /// Parses "a/b" or "a"; throws on malformed input.
  static Rational from_string(std::string_view text);

  [[nodiscard]] const BigInt& num() const { return num_; }
  [[nodiscard]] const BigInt& den() const { return den_; }

  [[nodiscard]] bool is_zero() const { return num_.is_zero(); }
  [[nodiscard]] int sign() const { return num_.sign(); }

  Rational& operator+=(const Rational& rhs);
  Rational& operator-=(const Rational& rhs);
  Rational& operator*=(const Rational& rhs);
  /// Division; rhs must be non-zero.
  Rational& operator/=(const Rational& rhs);

  friend Rational operator+(Rational lhs, const Rational& rhs) {
    return lhs += rhs;
  }
  friend Rational operator-(Rational lhs, const Rational& rhs) {
    return lhs -= rhs;
  }
  friend Rational operator*(Rational lhs, const Rational& rhs) {
    return lhs *= rhs;
  }
  friend Rational operator/(Rational lhs, const Rational& rhs) {
    return lhs /= rhs;
  }
  Rational operator-() const { return Rational{num_.negated(), den_}; }

  friend bool operator==(const Rational& lhs, const Rational& rhs) {
    return lhs.num_ == rhs.num_ && lhs.den_ == rhs.den_;
  }
  friend std::strong_ordering operator<=>(const Rational& lhs,
                                          const Rational& rhs);

  /// min of two rationals (by value).
  static const Rational& min(const Rational& a, const Rational& b) {
    return b < a ? b : a;
  }
  /// max of two rationals (by value).
  static const Rational& max(const Rational& a, const Rational& b) {
    return a < b ? b : a;
  }

  /// "a/b", or just "a" when the denominator is 1.
  [[nodiscard]] std::string to_string() const;
  /// Appends the to_string() form to `out`.
  void append_to(std::string& out) const;

  /// Approximate double value (for display / benchmarks only).
  [[nodiscard]] double to_double() const;

  /// Hash suitable for unordered containers.
  [[nodiscard]] std::size_t hash() const;

 private:
  void reduce();

  BigInt num_;
  BigInt den_;  // always > 0
};

std::ostream& operator<<(std::ostream& os, const Rational& value);

}  // namespace ldlb

template <>
struct std::hash<ldlb::Rational> {
  std::size_t operator()(const ldlb::Rational& v) const noexcept {
    return v.hash();
  }
};
