#include "ldlb/util/rational.hpp"

#include <ostream>

#include "ldlb/util/error.hpp"

namespace ldlb {

Rational::Rational(BigInt num, BigInt den)
    : num_(std::move(num)), den_(std::move(den)) {
  LDLB_REQUIRE_MSG(!den_.is_zero(), "rational with zero denominator");
  reduce();
}

void Rational::reduce() {
  if (den_.is_negative()) {
    num_ = num_.negated();
    den_ = den_.negated();
  }
  if (num_.is_zero()) {
    den_ = BigInt{1};
    return;
  }
  // Weight arithmetic mostly produces already-reduced fractions (dyadic
  // denominators); skipping the two divisions when gcd == 1 keeps the hot
  // path at a single binary-GCD word loop.
  BigInt g = BigInt::gcd(num_, den_);
  if (g != BigInt{1}) {
    num_ /= g;
    den_ /= g;
  }
}

Rational Rational::from_string(std::string_view text) {
  auto slash = text.find('/');
  if (slash == std::string::npos) {
    return Rational{BigInt::from_string(text), BigInt{1}};
  }
  return Rational{BigInt::from_string(text.substr(0, slash)),
                  BigInt::from_string(text.substr(slash + 1))};
}

Rational& Rational::operator+=(const Rational& rhs) {
  num_ = num_ * rhs.den_ + rhs.num_ * den_;
  den_ = den_ * rhs.den_;
  reduce();
  return *this;
}

Rational& Rational::operator-=(const Rational& rhs) {
  num_ = num_ * rhs.den_ - rhs.num_ * den_;
  den_ = den_ * rhs.den_;
  reduce();
  return *this;
}

Rational& Rational::operator*=(const Rational& rhs) {
  num_ *= rhs.num_;
  den_ *= rhs.den_;
  reduce();
  return *this;
}

Rational& Rational::operator/=(const Rational& rhs) {
  LDLB_REQUIRE_MSG(!rhs.is_zero(), "division of rational by zero");
  num_ *= rhs.den_;
  den_ *= rhs.num_;
  reduce();
  return *this;
}

std::strong_ordering operator<=>(const Rational& lhs, const Rational& rhs) {
  // Sign alone decides most comparisons; equal denominators (common for the
  // dyadic weights the packing algorithms emit) avoid the cross products.
  const int sl = lhs.sign(), sr = rhs.sign();
  if (sl != sr) return sl <=> sr;
  if (lhs.den_ == rhs.den_) return lhs.num_ <=> rhs.num_;
  // Cross-multiplication is sign-safe because denominators are positive.
  return lhs.num_ * rhs.den_ <=> rhs.num_ * lhs.den_;
}

std::string Rational::to_string() const {
  if (den_ == BigInt{1}) return num_.to_string();
  return num_.to_string() + "/" + den_.to_string();
}

void Rational::append_to(std::string& out) const {
  num_.append_to(out);
  if (den_ == BigInt{1}) return;
  out += '/';
  den_.append_to(out);
}

double Rational::to_double() const {
  // Sufficient for display: go through long double division of decimal
  // approximations when values fit, otherwise scale down.
  if (num_.fits_int64() && den_.fits_int64()) {
    return static_cast<double>(num_.to_int64()) /
           static_cast<double>(den_.to_int64());
  }
  // Fall back on string-length scaling for huge values (rare; display only).
  std::string n = num_.abs().to_string();
  std::string d = den_.to_string();
  double mant = 0;
  {
    double nn = 0, dd = 0;
    for (char c : n.substr(0, 15)) nn = nn * 10 + (c - '0');
    for (char c : d.substr(0, 15)) dd = dd * 10 + (c - '0');
    mant = nn / dd;
  }
  int exp10 = static_cast<int>(n.size()) - static_cast<int>(d.size());
  double value = mant;
  while (exp10 > 0) {
    value *= 10;
    --exp10;
  }
  while (exp10 < 0) {
    value /= 10;
    ++exp10;
  }
  return num_.is_negative() ? -value : value;
}

std::size_t Rational::hash() const {
  return num_.hash() * 1000003u ^ den_.hash();
}

std::ostream& operator<<(std::ostream& os, const Rational& value) {
  return os << value.to_string();
}

}  // namespace ldlb
