// Unit and property tests for ldlb::Rational, and differential tests of
// its word tier against BigInt arithmetic on num()/den() and of its word
// parse against the BigInt parse.
#include "ldlb/util/rational.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include "ldlb/util/alloc_guard.hpp"
#include "ldlb/util/error.hpp"
#include "ldlb/util/rng.hpp"

namespace ldlb {
namespace {

TEST(Rational, DefaultIsZero) {
  Rational r;
  EXPECT_TRUE(r.is_zero());
  EXPECT_EQ(r.to_string(), "0");
}

TEST(Rational, ReducesToLowestTerms) {
  Rational r{6, 8};
  EXPECT_EQ(r.num().to_int64(), 3);
  EXPECT_EQ(r.den().to_int64(), 4);
  EXPECT_EQ(r.to_string(), "3/4");
}

TEST(Rational, NormalisesDenominatorSign) {
  Rational r{1, -2};
  EXPECT_EQ(r.to_string(), "-1/2");
  EXPECT_EQ(Rational(-1, -2).to_string(), "1/2");
}

TEST(Rational, ZeroDenominatorThrows) {
  EXPECT_THROW(Rational(1, 0), ContractViolation);
}

TEST(Rational, FromString) {
  EXPECT_EQ(Rational::from_string("3/4"), Rational(3, 4));
  EXPECT_EQ(Rational::from_string("-6/8"), Rational(-3, 4));
  EXPECT_EQ(Rational::from_string("5"), Rational(5));
}

TEST(Rational, StringRoundTrip) {
  Rng rng{7};
  for (int i = 0; i < 500; ++i) {
    Rational r{rng.next_in(-10000, 10000), rng.next_in(1, 10000)};
    EXPECT_EQ(Rational::from_string(r.to_string()), r);
  }
}

TEST(Rational, Arithmetic) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2));
  EXPECT_EQ(-Rational(1, 2), Rational(-1, 2));
}

TEST(Rational, DivisionByZeroThrows) {
  EXPECT_THROW(Rational(1) / Rational(0), ContractViolation);
}

TEST(Rational, Ordering) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_LT(Rational(-1), Rational(0));
  EXPECT_EQ(Rational::min(Rational(2, 5), Rational(3, 7)), Rational(2, 5));
  EXPECT_EQ(Rational::max(Rational(2, 5), Rational(3, 7)), Rational(3, 7));
}

TEST(Rational, FieldAxiomsRandomised) {
  Rng rng{42};
  auto rand_rat = [&] {
    return Rational{rng.next_in(-50, 50), rng.next_in(1, 50)};
  };
  for (int i = 0; i < 500; ++i) {
    Rational a = rand_rat(), b = rand_rat(), c = rand_rat();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a + Rational(0), a);
    EXPECT_EQ(a * Rational(1), a);
    EXPECT_EQ(a - a, Rational(0));
    if (!a.is_zero()) {
      EXPECT_EQ(a / a, Rational(1));
    }
  }
}

// Repeated halving — the weight pattern the packing algorithms produce —
// stays exact far beyond double precision.
TEST(Rational, DeepDyadicsStayExact) {
  Rational r{1};
  for (int i = 0; i < 200; ++i) r *= Rational(1, 2);
  Rational back = r;
  for (int i = 0; i < 200; ++i) back *= Rational(2);
  EXPECT_EQ(back, Rational(1));
  EXPECT_EQ(r.den(), BigInt::pow2(200));
}

TEST(Rational, ToDoubleApproximation) {
  EXPECT_DOUBLE_EQ(Rational(1, 2).to_double(), 0.5);
  EXPECT_DOUBLE_EQ(Rational(-3, 4).to_double(), -0.75);
  EXPECT_NEAR(Rational(1, 3).to_double(), 1.0 / 3.0, 1e-12);
}

TEST(Rational, HashConsistentWithEquality) {
  EXPECT_EQ(Rational(2, 4).hash(), Rational(1, 2).hash());
}

// ---------------------------------------------------------------------------
// Word tier against BigInt.
// ---------------------------------------------------------------------------

// A reduced numerator/denominator pair computed in BigInt alone: the
// reference every Rational result is checked against.
struct Exact {
  BigInt num;
  BigInt den;
};

Exact exact(BigInt num, BigInt den) {
  if (den.is_negative()) {
    num = num.negated();
    den = den.negated();
  }
  if (num.is_zero()) return {BigInt{0}, BigInt{1}};
  const BigInt g = BigInt::gcd(num, den);
  return {num / g, den / g};
}

bool fits_word(const BigInt& v) {
  return v.fits_int64() && v != BigInt{INT64_MIN};
}

// True iff `r` sits in the spill tier. Copying a spill allocates and
// charges the thread's allocation budget; copying a word never does.
bool spilled(const Rational& r) {
  ScopedAllocBudget none(0);
  try {
    const Rational copy = r;
    (void)copy;
    return false;
  } catch (const std::bad_alloc&) {
    return true;
  }
}

// `got` holds exactly `want`, in the tier its parts call for, renders the
// BigInt digits, equals the value built from the parts, and hashes as the
// BigInt parts do.
bool matches(const Rational& got, const Exact& want) {
  const Rational built{want.num, want.den};
  const std::string digits =
      want.den == BigInt{1} ? want.num.to_string()
                            : want.num.to_string() + "/" + want.den.to_string();
  return got.num() == want.num && got.den() == want.den &&
         spilled(got) != (fits_word(want.num) && fits_word(want.den)) &&
         got == built &&
         got.hash() == (want.num.hash() * 1000003u ^ want.den.hash()) &&
         got.to_string() == digits && got.sign() == want.num.sign();
}

// 0, ±1, 2^31 ± 1, ±2^62, ±(2^63 − 1) and INT64_MIN.
const std::vector<std::int64_t>& edge_ints() {
  constexpr std::int64_t p31 = std::int64_t{1} << 31;
  constexpr std::int64_t p62 = std::int64_t{1} << 62;
  static const std::vector<std::int64_t> values = {
      0,   1,    -1,        p31 + 1,    p31 - 1,   -(p31 + 1),
      p62, -p62, INT64_MAX, -INT64_MAX, INT64_MIN, INT64_MIN + 1};
  return values;
}

std::vector<Rational> edge_rationals() {
  std::vector<Rational> out;
  for (std::int64_t n : edge_ints()) {
    for (std::int64_t d : edge_ints()) {
      if (d != 0) out.emplace_back(n, d);
    }
  }
  return out;
}

// A random operand: mostly words of random width, some edge values, some
// spills (BigInt products that need more than 63 bits).
Rational random_operand(Rng& rng, const std::vector<Rational>& edges) {
  auto word = [&rng] {
    const auto bits = static_cast<int>(rng.next_in(0, 63));
    const std::uint64_t mag = bits == 0 ? 0 : rng.next_u64() >> (64 - bits);
    const auto v = static_cast<std::int64_t>(mag);  // below 2^63
    return rng.next_bool() ? -v : v;
  };
  auto nonzero = [&] {
    std::int64_t v = word();
    return v == 0 ? std::int64_t{1} : v;
  };
  switch (rng.next_in(0, 7)) {
    case 0:
      return edges[rng.next_below(edges.size())];
    case 1:
      return Rational{BigInt{word()} * BigInt{nonzero()},
                      BigInt{nonzero()} * BigInt{nonzero()}};
    case 2:  // small values: the packing algorithms' weights
      return Rational{rng.next_in(-1000, 1000), rng.next_in(1, 1 << 20)};
    default:
      return Rational{word(), nonzero()};
  }
}

// Runs + − × ÷, <=> and == on (a, b) and checks each against BigInt;
// returns false (after one failure report) on the first mismatch.
bool check_pair(const Rational& a, const Rational& b) {
  const BigInt an = a.num(), ad = a.den(), bn = b.num(), bd = b.den();
  const struct {
    const char* op;
    Rational got;
    Exact want;
  } cases[] = {
      {"+", a + b, exact(an * bd + bn * ad, ad * bd)},
      {"-", a - b, exact(an * bd - bn * ad, ad * bd)},
      {"*", a * b, exact(an * bn, ad * bd)},
  };
  for (const auto& c : cases) {
    if (!matches(c.got, c.want)) {
      ADD_FAILURE() << a << " " << c.op << " " << b << " gave " << c.got;
      return false;
    }
  }
  if (!b.is_zero()) {
    const Rational q = a / b;
    if (!matches(q, exact(an * bd, ad * bn))) {
      ADD_FAILURE() << a << " / " << b << " gave " << q;
      return false;
    }
  }
  const BigInt cross = an * bd - bn * ad;
  const std::strong_ordering want = cross.sign() <=> 0;
  if ((a <=> b) != want || (a == b) != (cross.sign() == 0) ||
      (a < b) != (cross.sign() < 0)) {
    ADD_FAILURE() << "comparing " << a << " with " << b;
    return false;
  }
  const Rational neg = -a;
  if (!matches(neg, exact(an.negated(), ad))) {
    ADD_FAILURE() << "-(" << a << ") gave " << neg;
    return false;
  }
  return true;
}

TEST(RationalWordTier, EdgeValuesMatchBigInt) {
  const std::vector<Rational> edges = edge_rationals();
  for (const Rational& r : edges) {
    ASSERT_TRUE(matches(r, exact(r.num(), r.den()))) << r;
  }
  for (const Rational& a : edges) {
    for (const Rational& b : edges) {
      ASSERT_TRUE(check_pair(a, b));
    }
  }
}

TEST(RationalWordTier, RandomOperandsMatchBigInt) {
  const std::vector<Rational> edges = edge_rationals();
  Rng rng{20260417};
  for (int i = 0; i < 10000; ++i) {
    const Rational a = random_operand(rng, edges);
    const Rational b = random_operand(rng, edges);
    ASSERT_TRUE(check_pair(a, b)) << "case " << i;
  }
}

TEST(RationalWordTier, OverflowingIntermediatesReduceBackIntoWords) {
  const std::int64_t p62 = std::int64_t{1} << 62;
  // The products need 64 bits, the reduced result one.
  const Rational x = Rational(p62, 3) * Rational(3, p62);
  EXPECT_EQ(x, Rational(1));
  EXPECT_FALSE(spilled(x));
  const Rational y = Rational(INT64_MAX, 2) / Rational(INT64_MAX, 4);
  EXPECT_EQ(y, Rational(2));
  EXPECT_FALSE(spilled(y));
  // Sums whose cross products overflow 64 bits but cancel.
  const Rational z = Rational(INT64_MAX, INT64_MAX - 1) -
                     Rational(1, INT64_MAX - 1);
  EXPECT_EQ(z, Rational(1));
  EXPECT_FALSE(spilled(z));
  // A spilled operand whose result fits is demoted by the BigInt path.
  const Rational big = Rational(BigInt::pow2(64), BigInt{3});
  EXPECT_TRUE(spilled(big));
  const Rational back = big * Rational(BigInt{3}, BigInt::pow2(64));
  EXPECT_EQ(back, Rational(1));
  EXPECT_FALSE(spilled(back));
  EXPECT_EQ(big - big, Rational(0));
  EXPECT_FALSE(spilled(big - big));
}

TEST(RationalWordTier, HalvingChainSpillsAndDemotes) {
  Rational r{1};
  for (int k = 1; k <= 70; ++k) {
    r *= Rational(1, 2);
    ASSERT_EQ(r.den(), BigInt::pow2(static_cast<unsigned>(k)));
    ASSERT_EQ(spilled(r), k >= 63) << "1/2^" << k;
  }
  for (int k = 69; k >= 0; --k) {
    r += r;
    ASSERT_EQ(r.den(), BigInt::pow2(static_cast<unsigned>(k)));
    ASSERT_EQ(spilled(r), k >= 63) << "1/2^" << k;
  }
  EXPECT_EQ(r, Rational(1));
}

TEST(RationalWordTier, EqualityOrderAndHashAcrossTiers) {
  const BigInt two63 = BigInt::pow2(63);
  const Rational top{INT64_MAX};
  const Rational over{two63, BigInt{1}};
  const Rational min{INT64_MIN};
  EXPECT_FALSE(spilled(top));
  EXPECT_TRUE(spilled(over));
  EXPECT_TRUE(spilled(min));
  EXPECT_LT(top, over);
  EXPECT_GT(over, top);
  EXPECT_LT(min, Rational(INT64_MIN + 1));
  EXPECT_LT(min, top);
  EXPECT_NE(top, over);
  EXPECT_EQ(-min, over);
  EXPECT_EQ(Rational::max(top, over), over);
  EXPECT_EQ(Rational::min(min, top), min);
  // One value reached along several paths: one representation, one hash.
  const std::int64_t p62 = std::int64_t{1} << 62;
  const Rational paths[] = {
      Rational(p62),
      Rational(BigInt::pow2(62), BigInt{1}),
      Rational(BigInt::pow2(64), BigInt{4}),
      Rational::from_string("4611686018427387904"),
      Rational::from_string("-18446744073709551616/-4"),
      over / Rational(2),
      (over + over) / Rational(4),
  };
  for (const Rational& r : paths) {
    EXPECT_EQ(r, paths[0]) << r;
    EXPECT_EQ(r.hash(), paths[0].hash()) << r;
    EXPECT_FALSE(spilled(r)) << r;
  }
}

TEST(RationalWordTier, StringRoundTripAtTheBoundary) {
  const char* texts[] = {
      "9223372036854775807",  "9223372036854775808",
      "-9223372036854775807", "-9223372036854775808",
      "1/9223372036854775807", "1/9223372036854775808",
      "-9223372036854775807/9223372036854775806",
      "9223372036854775809/9223372036854775807",
      "-4611686018427387904/2147483649",
  };
  for (const char* text : texts) {
    const Rational r = Rational::from_string(text);
    EXPECT_EQ(r.to_string(), text);
    EXPECT_EQ(Rational::from_string(r.to_string()), r);
    std::string appended = "w=";
    r.append_to(appended);
    EXPECT_EQ(appended, std::string("w=") + text);
  }
  for (const Rational& r : edge_rationals()) {
    EXPECT_EQ(Rational::from_string(r.to_string()), r) << r;
  }
}

// How one parse ended: the value, or the exception's dynamic type and text.
struct ParseOutcome {
  std::optional<Rational> value;
  std::string error_type;
  std::string error;
};

template <typename Parse>
ParseOutcome parse_outcome(const Parse& parse, std::string_view text) {
  try {
    return {parse(text), "", ""};
  } catch (const std::exception& e) {
    return {std::nullopt, typeid(e).name(), e.what()};
  }
}

// The reference parse: both parts through BigInt, then the BigInt
// constructor (a part without '/' has denominator 1).
Rational parse_via_bigint(std::string_view text) {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) {
    return Rational{BigInt::from_string(text), BigInt{1}};
  }
  return Rational{BigInt::from_string(text.substr(0, slash)),
                  BigInt::from_string(text.substr(slash + 1))};
}

// from_string agrees with the reference on `text`: same value, tier and
// hash, or the same exception type and message. Returns whether it parsed.
bool expect_parse_matches_bigint(std::string_view text) {
  SCOPED_TRACE("text '" + std::string(text) + "'");
  const ParseOutcome got = parse_outcome(Rational::from_string, text);
  const ParseOutcome want = parse_outcome(parse_via_bigint, text);
  EXPECT_EQ(got.error_type, want.error_type);
  EXPECT_EQ(got.error, want.error);
  EXPECT_EQ(got.value.has_value(), want.value.has_value());
  if (got.value && want.value) {
    EXPECT_EQ(*got.value, *want.value);
    EXPECT_EQ(spilled(*got.value), spilled(*want.value));
    EXPECT_EQ(got.value->hash(), want.value->hash());
    EXPECT_EQ(got.value->to_string(), want.value->to_string());
  }
  return got.value.has_value();
}

TEST(RationalWordTier, FromStringMatchesBigIntParse) {
  const char* accepted[] = {
      "0", "-0", "+7", "007", "123456789012345678", "-123456789012345678",
      "1234567890123456789", "-1234567890123456789", "9223372036854775807",
      "-9223372036854775807", "-9223372036854775808", "9223372036854775808",
      "2/-4", "-2/-4", "999999999999999999/-999999999999999998",
      "-000000000000000000000000003/000000000000000000000009"};
  for (const char* text : accepted) {
    EXPECT_TRUE(expect_parse_matches_bigint(text)) << text;
  }
  const char* rejected[] = {"1/0", "",  "-",     "+",    "1/",  "/1",
                            "1//2", "1/2/3", " 1", "1 ", "-0/0", "1/-",
                            "--1",  "1/+-2", "0x1", "1.5"};
  for (const char* text : rejected) {
    EXPECT_FALSE(expect_parse_matches_bigint(text)) << text;
  }
  const std::vector<Rational> edges = edge_rationals();
  Rng rng{20261018};
  for (int i = 0; i < 10000; ++i) {
    std::string text;
    random_operand(rng, edges).append_to(text);
    ASSERT_TRUE(expect_parse_matches_bigint(text)) << "case " << i;
  }
}

TEST(RationalWordTier, MinWordDenominatorsAndNegativeDivisors) {
  EXPECT_EQ(Rational(1, INT64_MIN).to_string(), "-1/9223372036854775808");
  EXPECT_TRUE(spilled(Rational(1, INT64_MIN)));
  EXPECT_EQ(Rational(2, INT64_MIN).to_string(), "-1/4611686018427387904");
  EXPECT_FALSE(spilled(Rational(2, INT64_MIN)));
  EXPECT_EQ(Rational(INT64_MIN, INT64_MIN), Rational(1));
  EXPECT_EQ(Rational(0, INT64_MIN), Rational(0));
  EXPECT_EQ(Rational(-3, INT64_MIN).to_string(), "3/9223372036854775808");
  EXPECT_EQ(Rational(1, 3) / Rational(-2, 5), Rational(-5, 6));
  EXPECT_EQ(Rational(-1, 3) / Rational(-2, 5), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) / Rational(INT64_MIN),
            Rational(BigInt{-1}, BigInt::pow2(64)));
  EXPECT_EQ(Rational(INT64_MIN) / Rational(-1),
            Rational(BigInt::pow2(63), BigInt{1}));
  EXPECT_EQ(Rational(INT64_MIN + 1) / Rational(-1), Rational(INT64_MAX));
  EXPECT_FALSE(spilled(Rational(INT64_MIN + 1) / Rational(-1)));
}

}  // namespace
}  // namespace ldlb
