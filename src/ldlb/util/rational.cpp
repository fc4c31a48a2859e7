#include "ldlb/util/rational.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <utility>

#include "ldlb/util/alloc_guard.hpp"
#include "ldlb/util/error.hpp"

namespace ldlb {

namespace {

using u128 = unsigned __int128;
using i128 = __int128;

// Reduced parts strictly below this bound sit in the word tier.
constexpr u128 kWordBound = u128{1} << 63;

u128 magnitude(i128 v) { return v < 0 ? -static_cast<u128>(v) : v; }

int ctz_wide(u128 x) {  // x != 0
  const auto lo = static_cast<std::uint64_t>(x);
  return lo != 0 ? __builtin_ctzll(lo)
                 : 64 + __builtin_ctzll(static_cast<std::uint64_t>(x >> 64));
}

// Binary GCD of two odd words: shifts and subtractions only, written
// without data-dependent branches so the loop does not mispredict.
std::uint64_t gcd_odd(std::uint64_t a, std::uint64_t b) {
  if (a == 1 || b == 1) return 1;
  while (a != b) {
    const std::uint64_t diff = a > b ? a - b : b - a;
    a = std::min(a, b);
    b = diff >> __builtin_ctzll(diff);
  }
  return a;
}

// GCD of two odd values: Euclid steps until both fit a word (only near the
// spill boundary), then the word loop.
u128 gcd_odd_wide(u128 a, u128 b) {
  while (((a | b) >> 64) != 0) {
    if (a < b) std::swap(a, b);
    a %= b;
    if (a == 0) return b;
    a >>= ctz_wide(a);  // b is odd, so a's factors of two are not shared
  }
  return gcd_odd(static_cast<std::uint64_t>(a),
                 static_cast<std::uint64_t>(b));
}

// Exact division, in one machine division when both operands fit a word.
u128 div_exact(u128 x, u128 d) {
  if (((x | d) >> 64) == 0) {
    return static_cast<std::uint64_t>(x) / static_cast<std::uint64_t>(d);
  }
  return x / d;
}

bool fits_word(const BigInt& v) {
  return v.fits_int64() && v != BigInt{INT64_MIN};
}

// Parses a part that is only digits, with an optional '-' and at most 18 of
// them (so below 10^18 < 2^63); false for anything else, which the BigInt
// parser then accepts or rejects with its own message.
bool parse_word_part(std::string_view text, std::int64_t& out) {
  const bool negative = !text.empty() && text.front() == '-';
  if (negative) text.remove_prefix(1);
  if (text.empty() || text.size() > 18) return false;
  std::int64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + (c - '0');
  }
  out = negative ? -v : v;
  return true;
}

}  // namespace

Rational::Rational(BigInt num, BigInt den) {
  LDLB_REQUIRE_MSG(!den.is_zero(), "rational with zero denominator");
  if (num.fits_int64() && den.fits_int64()) {
    const std::int64_t n = num.to_int64(), d = den.to_int64();
    if (assign_wide((n < 0) != (d < 0), magnitude(n), magnitude(d))) return;
  }
  assign_big(std::move(num), std::move(den));
}

Rational::Rational(std::int64_t num, std::int64_t den) {
  LDLB_REQUIRE_MSG(den != 0, "rational with zero denominator");
  if (!assign_wide((num < 0) != (den < 0), magnitude(num), magnitude(den))) {
    assign_big(BigInt{num}, BigInt{den});
  }
}

bool Rational::assign_wide(bool negative, u128 mag, u128 den) {
  if (mag == 0) {
    num_ = 0;
    den_ = 1;
    return true;
  }
  // Shifts strip the common factor of two, which is all the reduction
  // dyadic weights need; only odd parts reach the GCD loop.
  const int tm = ctz_wide(mag), td = ctz_wide(den);
  const int common = std::min(tm, td);
  mag >>= common;
  den >>= common;
  const u128 g = gcd_odd_wide(mag >> (tm - common), den >> (td - common));
  if (g != 1) {
    mag = div_exact(mag, g);
    den = div_exact(den, g);
  }
  if (mag >= kWordBound || den >= kWordBound) return false;
  const auto n = static_cast<std::int64_t>(mag);
  num_ = negative ? -n : n;
  den_ = static_cast<std::int64_t>(den);
  return true;
}

void Rational::assign_big(BigInt num, BigInt den) {
  if (den.is_negative()) {
    num = num.negated();
    den = den.negated();
  }
  if (num.is_zero()) {
    den = BigInt{1};
  } else {
    BigInt g = BigInt::gcd(num, den);
    if (g != BigInt{1}) {
      num /= g;
      den /= g;
    }
  }
  if (fits_word(num) && fits_word(den)) {
    num_ = num.to_int64();
    den_ = den.to_int64();
    big_.reset();
    return;
  }
  // The spill is the one allocation of exact arithmetic besides BigInt's
  // limbs; observing the thread-local budget here lets the env-fault tests
  // starve it deterministically (util/alloc_guard.hpp).
  charge_alloc(sizeof(Spill));
  auto spill = std::make_unique<Spill>(Spill{std::move(num), std::move(den)});
  num_ = spill->num.sign();
  den_ = 0;
  big_ = std::move(spill);
}

std::unique_ptr<Rational::Spill> Rational::copy_spill(const Spill& spill) {
  charge_alloc(sizeof(Spill));
  return std::make_unique<Spill>(spill);
}

Rational& Rational::assign_slow(const Rational& other) {
  if (this == &other) return *this;
  std::unique_ptr<Spill> copy = other.big_ ? copy_spill(*other.big_) : nullptr;
  num_ = other.num_;
  den_ = other.den_;
  big_ = std::move(copy);
  return *this;
}

Rational Rational::from_string(std::string_view text) {
  const auto slash = text.find('/');
  // Word fast path, taken by the weights in fleet replies and certificate
  // text. A zero denominator falls through so the error is the BigInt
  // path's.
  std::int64_t n = 0, d = 1;
  if (parse_word_part(text.substr(0, slash), n) &&
      (slash == std::string::npos ||
       (parse_word_part(text.substr(slash + 1), d) && d != 0))) {
    return Rational{n, d};
  }
  if (slash == std::string::npos) {
    return Rational{BigInt::from_string(text), BigInt{1}};
  }
  return Rational{BigInt::from_string(text.substr(0, slash)),
                  BigInt::from_string(text.substr(slash + 1))};
}

BigInt Rational::num() const { return big_ ? big_->num : BigInt{num_}; }

BigInt Rational::den() const { return big_ ? big_->den : BigInt{den_}; }

// Word operands run in __int128 and keep the result if its reduced parts
// fit; anything else is recomputed in BigInt, which demotes what fits.

Rational& Rational::operator+=(const Rational& rhs) { return add(rhs, false); }

Rational& Rational::operator-=(const Rational& rhs) { return add(rhs, true); }

Rational& Rational::add(const Rational& rhs, bool subtract) {
  if (!big_ && !rhs.big_) {
    const std::int64_t c = subtract ? -rhs.num_ : rhs.num_;
    const bool same = den_ == rhs.den_;
    const i128 n = same ? i128{num_} + c
                        : i128{num_} * rhs.den_ + i128{c} * den_;
    const u128 d = same ? u128(den_) : u128(den_) * u128(rhs.den_);
    if (assign_wide(n < 0, magnitude(n), d)) return *this;
  }
  BigInt cross = rhs.num() * den();
  if (subtract) cross = cross.negated();
  assign_big(num() * rhs.den() + cross, den() * rhs.den());
  return *this;
}

Rational& Rational::operator*=(const Rational& rhs) {
  if (!big_ && !rhs.big_) {
    const i128 n = i128{num_} * rhs.num_;
    if (assign_wide(n < 0, magnitude(n), u128(den_) * u128(rhs.den_))) {
      return *this;
    }
  }
  assign_big(num() * rhs.num(), den() * rhs.den());
  return *this;
}

Rational& Rational::operator/=(const Rational& rhs) {
  LDLB_REQUIRE_MSG(!rhs.is_zero(), "division of rational by zero");
  if (!big_ && !rhs.big_) {
    const i128 n = i128{num_} * rhs.den_;
    if (assign_wide((n < 0) != (rhs.num_ < 0), magnitude(n),
                    u128(den_) * magnitude(rhs.num_))) {
      return *this;
    }
  }
  assign_big(num() * rhs.den(), den() * rhs.num());
  return *this;
}

Rational Rational::operator-() const {
  Rational r = *this;
  // Negation keeps both magnitudes, so it never changes the tier.
  r.num_ = -r.num_;
  if (r.big_) r.big_->num = r.big_->num.negated();
  return r;
}

bool Rational::spills_equal(const Rational& lhs, const Rational& rhs) {
  return lhs.big_->num == rhs.big_->num && lhs.big_->den == rhs.big_->den;
}

std::strong_ordering Rational::compare_slow(const Rational& lhs,
                                            const Rational& rhs) {
  const int sl = lhs.sign(), sr = rhs.sign();
  if (sl != sr) return sl <=> sr;
  // Cross-multiplication is sign-safe because denominators are positive.
  return lhs.num() * rhs.den() <=> rhs.num() * lhs.den();
}

void Rational::append_to(std::string& out) const {
  if (big_) {
    big_->num.append_to(out);
    if (big_->den == BigInt{1}) return;
    out += '/';
    big_->den.append_to(out);
    return;
  }
  char digits[20];  // "-9223372036854775807"
  auto result = std::to_chars(digits, digits + sizeof digits, num_);
  out.append(digits, result.ptr);
  if (den_ == 1) return;
  out += '/';
  result = std::to_chars(digits, digits + sizeof digits, den_);
  out.append(digits, result.ptr);
}

std::string Rational::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

double Rational::to_double() const {
  if (!big_) return static_cast<double>(num_) / static_cast<double>(den_);
  const BigInt& num = big_->num;
  const BigInt& den = big_->den;
  // Sufficient for display: go through long double division of decimal
  // approximations when values fit, otherwise scale down.
  if (num.fits_int64() && den.fits_int64()) {
    return static_cast<double>(num.to_int64()) /
           static_cast<double>(den.to_int64());
  }
  // Fall back on string-length scaling for huge values (rare; display only).
  std::string n = num.abs().to_string();
  std::string d = den.to_string();
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
  return num.is_negative() ? -value : value;
}

std::size_t Rational::hash() const {
  // The BigInt hashes of the parts, whichever tier holds them.
  if (big_) return big_->num.hash() * 1000003u ^ big_->den.hash();
  return BigInt{num_}.hash() * 1000003u ^ BigInt{den_}.hash();
}

std::ostream& operator<<(std::ostream& os, const Rational& value) {
  return os << value.to_string();
}

}  // namespace ldlb
