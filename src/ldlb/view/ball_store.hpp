// Kept only because perfbench/ compiles against these names; the next
// benchmark change deletes this header. Property (P1) keeps no store
// (view/isomorphism.hpp), so every counter reads zero. Nothing outside
// perfbench/ may include it.
#pragma once

#include <cstdint>

namespace ldlb {

/// The six counters perfbench reads, all zero.
struct BallStoreStats {
  std::uint64_t key_queries = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t intern_lookups = 0;
  std::uint64_t intern_hits = 0;
  std::uint64_t intern_resets = 0;
  std::uint64_t collisions = 0;
};

[[nodiscard]] inline BallStoreStats ball_store_stats() { return {}; }

}  // namespace ldlb
