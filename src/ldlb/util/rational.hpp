// Exact rational numbers: two machine words, BigInt only on overflow.
//
// Fractional matching weights are rationals in [0, 1]. The lower-bound
// adversary (Section 4 of the paper) needs *exact* equality tests between
// weights produced in different graphs — floats would make the propagation
// principle (Fact 3) unsound — so all weights in the library are Rational.
//
// Almost every weight the library produces has a reduced numerator and
// denominator far below 2^63, so a Rational has two tiers:
//
//   * word: the reduced parts live inline in two int64s (24 bytes in all,
//     no heap). + − × ÷ and <=> run in __int128 — a product of two
//     magnitudes below 2^63 fits 126 bits and a sum of two such products
//     127 — and reduce with a binary GCD;
//   * spill: a value whose reduced parts do not both fit keeps them as a
//     BigInt pair behind a unique_ptr, and arithmetic on it runs in BigInt.
//
// The representation is canonical: a value is in the word tier exactly
// when |num| < 2^63 and den < 2^63 after reduction, and every constructor,
// parser and operator demotes a result that fits. So == compares
// representations, and hash() and the decimal digits are the same whichever
// path produced a value. INT64_MIN never sits in a word, so negating a word
// and the __int128 sums cannot overflow.
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

#include "ldlb/util/bigint.hpp"

namespace ldlb {

/// Exact rational number, always kept in lowest terms with a positive
/// denominator. Zero is 0/1.
class Rational {
 public:
  /// Zero.
  Rational() = default;
  /// Integer value.
  Rational(std::int64_t value) : num_(value) {  // NOLINT
    if (value == INT64_MIN) [[unlikely]] assign_big(BigInt{value}, BigInt{1});
  }
  /// num/den; den must be non-zero.
  Rational(BigInt num, BigInt den);
  /// num/den from machine integers; den must be non-zero.
  Rational(std::int64_t num, std::int64_t den);

  Rational(const Rational& other) : num_(other.num_), den_(other.den_) {
    if (other.big_) [[unlikely]] big_ = copy_spill(*other.big_);
  }
  Rational(Rational&& other) noexcept
      : num_(other.num_), den_(other.den_), big_(std::move(other.big_)) {
    other.make_word_after_move();
  }
  Rational& operator=(const Rational& other) {
    if (big_ || other.big_) [[unlikely]] return assign_slow(other);
    num_ = other.num_;
    den_ = other.den_;
    return *this;
  }
  Rational& operator=(Rational&& other) noexcept {
    if (this != &other) {
      num_ = other.num_;
      den_ = other.den_;
      big_ = std::move(other.big_);
      other.make_word_after_move();
    }
    return *this;
  }
  ~Rational() = default;

  /// Parses "a/b" or "a"; throws on malformed input. Parts of at most 18
  /// digits (optional '-') parse straight into the word tier; anything else
  /// goes through BigInt::from_string, so accepts, rejects and messages are
  /// BigInt's either way.
  static Rational from_string(std::string_view text);

  /// Numerator and denominator, whichever tier holds them.
  [[nodiscard]] BigInt num() const;
  [[nodiscard]] BigInt den() const;

  [[nodiscard]] bool is_zero() const { return num_ == 0; }
  [[nodiscard]] int sign() const { return (num_ > 0) - (num_ < 0); }

  Rational& operator+=(const Rational& rhs);
  Rational& operator-=(const Rational& rhs);
  Rational& operator*=(const Rational& rhs);
  /// Division; rhs must be non-zero.
  Rational& operator/=(const Rational& rhs);

  // `return lhs;` moves the result out; `return lhs += rhs;` would copy
  // it, which for a spill means a second allocation.
  friend Rational operator+(Rational lhs, const Rational& rhs) {
    lhs += rhs;
    return lhs;
  }
  friend Rational operator-(Rational lhs, const Rational& rhs) {
    lhs -= rhs;
    return lhs;
  }
  friend Rational operator*(Rational lhs, const Rational& rhs) {
    lhs *= rhs;
    return lhs;
  }
  friend Rational operator/(Rational lhs, const Rational& rhs) {
    lhs /= rhs;
    return lhs;
  }
  Rational operator-() const;

  // Canonical form makes structural equality value equality; a spilled
  // value has den_ == 0, so two words never reach the BigInt comparison.
  friend bool operator==(const Rational& lhs, const Rational& rhs) {
    return lhs.num_ == rhs.num_ && lhs.den_ == rhs.den_ &&
           (lhs.den_ != 0 || spills_equal(lhs, rhs));
  }
  friend std::strong_ordering operator<=>(const Rational& lhs,
                                          const Rational& rhs) {
    if (lhs.big_ || rhs.big_) [[unlikely]] return compare_slow(lhs, rhs);
    // Equal denominators (common for the dyadic weights the packing
    // algorithms emit) avoid the cross products; otherwise both fit 126
    // bits, and denominators are positive, so the order is sign-safe.
    if (lhs.den_ == rhs.den_) return lhs.num_ <=> rhs.num_;
    const __int128 l = static_cast<__int128>(lhs.num_) * rhs.den_;
    const __int128 r = static_cast<__int128>(rhs.num_) * lhs.den_;
    return l <=> r;
  }

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
  /// The spill tier: reduced parts that do not both fit a word.
  struct Spill {
    BigInt num;
    BigInt den;  // always > 0
  };

  /// Heap copy of a spill; charges the thread's allocation budget.
  static std::unique_ptr<Spill> copy_spill(const Spill& spill);
  static bool spills_equal(const Rational& lhs, const Rational& rhs);
  static std::strong_ordering compare_slow(const Rational& lhs,
                                           const Rational& rhs);
  Rational& assign_slow(const Rational& other);
  /// *this ± rhs, the shared body of += and -=.
  Rational& add(const Rational& rhs, bool subtract);

  /// A moved-from spill is left as zero, so den_ == 0 iff big_ is set.
  void make_word_after_move() noexcept {
    if (den_ == 0) {
      num_ = 0;
      den_ = 1;
    }
  }

  /// Stores sign·|num|/den (den > 0) in lowest terms if the reduced parts
  /// fit the word tier; returns false, leaving *this untouched, otherwise.
  bool assign_wide(bool negative, unsigned __int128 mag,
                   unsigned __int128 den);
  /// Reduces num/den (den != 0) in BigInt and stores it in whichever tier
  /// the reduced parts fit.
  void assign_big(BigInt num, BigInt den);

  // Word tier: num_/den_ in lowest terms, den_ > 0, num_ != INT64_MIN.
  // Spill tier: num_ is the sign (±1), den_ == 0, and big_ holds the value.
  std::int64_t num_ = 0;
  std::int64_t den_ = 1;
  std::unique_ptr<Spill> big_;
};

std::ostream& operator<<(std::ostream& os, const Rational& value);

}  // namespace ldlb

template <>
struct std::hash<ldlb::Rational> {
  std::size_t operator()(const ldlb::Rational& v) const noexcept {
    return v.hash();
  }
};
