// Content checksums for the self-validating snapshot store.
//
// FNV-1a is not cryptographic — it guards against truncation, bit rot and
// editor accidents, not against a determined forger. Anything loaded from a
// snapshot is therefore *also* re-validated semantically (the resumable
// adversary re-runs the algorithm on every restored level), so a record
// with a forged checksum still cannot be trusted into a certificate chain.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ldlb {

/// 64-bit FNV-1a over a byte string.
[[nodiscard]] constexpr std::uint64_t fnv1a_64(std::string_view bytes) {
  std::uint64_t hash = 14695981039346656037ull;
  for (char ch : bytes) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Fixed-width (16 digit) lowercase hex rendering, the on-disk form.
[[nodiscard]] std::string checksum_to_hex(std::uint64_t hash);

/// Parses the 16-digit hex form; returns false on malformed input.
[[nodiscard]] bool checksum_from_hex(std::string_view text,
                                     std::uint64_t& hash);

// ---------------------------------------------------------------------------
// 128-bit FNV-1a, the record and chain checksums of the certificate log
// (recover/cert_log.hpp). A Δ=20 log is several hundred megabytes; 128
// bits keep the odds that a damaged record still matches its checksum far
// below anything a proof artefact could notice.
// ---------------------------------------------------------------------------

/// A 128-bit checksum as two machine words, value-comparable; the pair
/// (hi, lo) is the big-endian reading of the 128-bit hash.
struct Checksum128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend constexpr bool operator==(const Checksum128&,
                                   const Checksum128&) = default;
};

namespace detail {

/// 64×64→128 multiply: one widening machine multiply (GCC and Clang, the
/// compilers this POSIX-only tree builds with, both provide __int128).
struct U128Product {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
};

[[nodiscard]] constexpr U128Product mul_64x64(std::uint64_t a,
                                              std::uint64_t b) {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  return U128Product{static_cast<std::uint64_t>(product >> 64),
                     static_cast<std::uint64_t>(product)};
}

/// One FNV-1a-128 step: hash = (hash ^ byte) * prime mod 2^128, with the
/// standard 128-bit prime 2^88 + 2^8 + 0x3b.
[[nodiscard]] constexpr Checksum128 fnv1a_128_step(Checksum128 hash,
                                                   unsigned char byte) {
  hash.lo ^= byte;
  // hash * (2^88 + 0x13b) mod 2^128:
  //   2^88 term: only lo contributes below 2^128, landing in hi << 24;
  //   0x13b term: lo widens to 128 bits, hi only needs its low word.
  const std::uint64_t shifted_hi = hash.lo << 24;
  const U128Product lo_p = mul_64x64(hash.lo, 0x13bULL);
  const std::uint64_t small_hi = hash.hi * 0x13bULL + lo_p.hi;
  return Checksum128{shifted_hi + small_hi, lo_p.lo};
}

}  // namespace detail

/// The FNV-1a-128 offset basis (144066263297769815596495629667062367629).
inline constexpr Checksum128 kFnv128OffsetBasis{0x6c62272e07bb0142ULL,
                                                0x62b821756295c58dULL};

/// 128-bit FNV-1a over a byte string, optionally chained from a previous
/// state so composite keys hash without materialising the full byte string.
[[nodiscard]] constexpr Checksum128 fnv1a_128(
    std::string_view bytes, Checksum128 state = kFnv128OffsetBasis) {
  for (char ch : bytes) {
    state = detail::fnv1a_128_step(state, static_cast<unsigned char>(ch));
  }
  return state;
}

/// Fixed-width (32 digit) lowercase hex rendering of a 128-bit checksum.
[[nodiscard]] std::string checksum_to_hex(const Checksum128& hash);

/// Parses the 32-digit hex form; returns false on malformed input.
[[nodiscard]] bool checksum_from_hex(std::string_view text, Checksum128& hash);

}  // namespace ldlb
