// Tests for the utility layer: deterministic RNG, contract macros, the
// FNV-1a checksums (the 128-bit one checksums every certificate-log
// record) and their hex renderings, and atomic-file error reporting.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "ldlb/util/atomic_file.hpp"
#include "ldlb/util/checksum.hpp"
#include "ldlb/util/error.hpp"
#include "ldlb/util/rng.hpp"

namespace ldlb {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng{7};
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_THROW(rng.next_below(0), ContractViolation);
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng{8};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng{9};
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
  EXPECT_EQ(rng.next_in(5, 5), 5);
  EXPECT_THROW(rng.next_in(2, 1), ContractViolation);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng{10};
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ShufflePermutes) {
  Rng rng{11};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  auto sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, original);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent{12};
  Rng child = parent.split();
  // The child stream should not replay the parent's outputs.
  Rng parent2{12};
  parent2.split();
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (child.next_u64() == parent.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Contracts, RequireThrowsWithLocation) {
  try {
    LDLB_REQUIRE_MSG(1 == 2, "custom detail " << 42);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom detail 42"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

TEST(Contracts, EnsurePassesSilently) {
  LDLB_ENSURE(2 + 2 == 4);
  LDLB_REQUIRE(true);
  SUCCEED();
}

// ---------------------------------------------------------------------------
// 128-bit FNV-1a (util/checksum).
// ---------------------------------------------------------------------------

// Independent reference implementation using the compiler's native
// __int128, against which the split-word version must agree.
unsigned __int128 fnv1a_128_reference(std::string_view bytes) {
  const unsigned __int128 prime =
      (static_cast<unsigned __int128>(1) << 88) + 0x13b;
  unsigned __int128 hash =
      (static_cast<unsigned __int128>(0x6c62272e07bb0142ULL) << 64) |
      0x62b821756295c58dULL;
  for (char ch : bytes) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= prime;
  }
  return hash;
}

TEST(Checksum128, MatchesNativeInt128Reference) {
  Rng rng{7};
  std::vector<std::string> inputs = {"", "a", "ab", "the quick brown fox"};
  for (int i = 0; i < 64; ++i) {
    std::string s;
    const std::size_t len = rng.next_below(40);
    for (std::size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>(rng.next_below(256)));
    }
    inputs.push_back(std::move(s));
  }
  for (const std::string& s : inputs) {
    const Checksum128 got = fnv1a_128(s);
    const unsigned __int128 want = fnv1a_128_reference(s);
    EXPECT_EQ(got.hi, static_cast<std::uint64_t>(want >> 64)) << s.size();
    EXPECT_EQ(got.lo, static_cast<std::uint64_t>(want)) << s.size();
  }
}

TEST(Checksum128, EmptyInputIsTheOffsetBasis) {
  const Checksum128 h = fnv1a_128("");
  EXPECT_EQ(h.hi, 0x6c62272e07bb0142ULL);
  EXPECT_EQ(h.lo, 0x62b821756295c58dULL);
}

TEST(Checksum128, ChainingEqualsOneShot) {
  // The certificate log chains records this way.
  const Checksum128 whole = fnv1a_128("certificate log");
  const Checksum128 chained = fnv1a_128(" log", fnv1a_128("certificate"));
  EXPECT_TRUE(whole == chained);
}

TEST(Checksum128, HexRendersRoundTrip) {
  const Checksum128 h = fnv1a_128("round trip");
  const std::string hex = checksum_to_hex(h);
  EXPECT_EQ(hex.size(), 32u);
  Checksum128 back;
  ASSERT_TRUE(checksum_from_hex(hex, back));
  EXPECT_TRUE(back == h);
  EXPECT_FALSE(checksum_from_hex("tooshort", back));
  EXPECT_FALSE(checksum_from_hex(hex.substr(0, 31) + "g", back));
}

TEST(Checksum128, NoCollisionsAcrossManyShortInputs) {
  // Pairwise distinctness over 10^5 structured 8-byte inputs (the
  // little-endian renderings of 0 .. 10^5 - 1), far beyond what a weak
  // mix would survive.
  std::unordered_set<std::string> hexes;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    std::string bytes;
    for (int b = 0; b < 8; ++b) {
      bytes.push_back(static_cast<char>((i >> (8 * b)) & 0xffU));
    }
    hexes.insert(checksum_to_hex(fnv1a_128(bytes)));
  }
  EXPECT_EQ(hexes.size(), 100000u);
}

TEST(Checksum, ChecksumHexHelpersRoundTrip) {
  const std::uint64_t h = fnv1a_64("ldlb-snapshot");
  std::uint64_t back = 0;
  ASSERT_TRUE(checksum_from_hex(checksum_to_hex(h), back));
  EXPECT_EQ(back, h);
  EXPECT_FALSE(checksum_from_hex("short", back));
  EXPECT_FALSE(checksum_from_hex("00000000DEADBEEF", back));  // upper case
  EXPECT_EQ(checksum_to_hex(0), "0000000000000000");
}

TEST(AtomicFile, WriteToUnwritableDirectoryThrowsIoError) {
  EXPECT_THROW(write_file_atomic("/nonexistent-dir/x/y.snap", "content"),
               IoError);
  const std::string missing =
      (std::filesystem::path(::testing::TempDir()) / "does_not_exist.bin")
          .string();
  EXPECT_THROW((void)read_file(missing), IoError);
}

}  // namespace
}  // namespace ldlb
