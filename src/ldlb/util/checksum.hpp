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
// 128-bit FNV-1a, for canonical ball keys (view/ball_store). At Δ=20 the
// interned table holds ~10^7 distinct sub-ball signatures; by the birthday
// bound a 64-bit key would collide with probability ≈ n²/2⁶⁵ ≈ 10⁻⁵ per
// sweep — too hot for a proof artefact — while 128 bits push the same bound
// below 10⁻²⁴. Canonical keys compare O(1) and must be content-derived
// (stable across processes and serialisable), which FNV-1a gives for free.
// ---------------------------------------------------------------------------

/// A 128-bit checksum as two machine words. Value-comparable and hashable;
/// the pair (hi, lo) is the big-endian reading of the 128-bit hash.
struct Checksum128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend constexpr bool operator==(const Checksum128&,
                                   const Checksum128&) = default;
  /// Word-mix for unordered containers (not part of the on-disk form).
  [[nodiscard]] constexpr std::uint64_t mix() const {
    std::uint64_t h = hi ^ (lo * 0x9e3779b97f4a7c15ULL);
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    return h ^ (h >> 32);
  }
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

/// Chains one little-endian 64-bit word into a running FNV-1a-128 state.
[[nodiscard]] constexpr Checksum128 fnv1a_128_word(std::uint64_t word,
                                                   Checksum128 state) {
  for (int i = 0; i < 8; ++i) {
    state = detail::fnv1a_128_step(
        state, static_cast<unsigned char>((word >> (8 * i)) & 0xffU));
  }
  return state;
}

/// Absorbs one 64-bit word into a running state with a *single* prime
/// multiplication — the hot-path variant for view/ball_store's signature
/// hashing, where fnv1a_128_word's eight byte steps per word dominated the
/// Δ=12 adversary profile. Not byte-compatible with fnv1a_128_word (the
/// whole word lands in the xor at once); injectivity per step is the same
/// (xor, then multiply by the odd prime, are both bijections mod 2^128),
/// the avalanche is just slower. Acceptable for canonical keys because
/// every intern hit structurally compares signatures and counts
/// collisions — a key collision is detected, not silently believed.
[[nodiscard]] constexpr Checksum128 fnv1a_128_absorb(std::uint64_t word,
                                                     Checksum128 state) {
  state.lo ^= word;
  const std::uint64_t shifted_hi = state.lo << 24;
  const detail::U128Product lo_p = detail::mul_64x64(state.lo, 0x13bULL);
  return Checksum128{shifted_hi + state.hi * 0x13bULL + lo_p.hi, lo_p.lo};
}

/// Fixed-width (32 digit) lowercase hex rendering of a 128-bit checksum.
[[nodiscard]] std::string checksum_to_hex(const Checksum128& hash);

/// Parses the 32-digit hex form; returns false on malformed input.
[[nodiscard]] bool checksum_from_hex(std::string_view text, Checksum128& hash);

}  // namespace ldlb
