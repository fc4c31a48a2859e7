#include "ldlb/cover/refinement.hpp"

#include <algorithm>
#include <bit>

#include "ldlb/util/alloc_guard.hpp"

namespace ldlb {

EndTable::EndTable(NodeId nodes, EdgeId edges) {
  const auto node_slots = static_cast<std::size_t>(nodes) + 1;
  const auto end_slots = 2 * static_cast<std::size_t>(edges);
  charge_alloc(node_slots * sizeof(std::int32_t) + end_slots * sizeof(End));
  offset.reserve(node_slots);
  offset.push_back(0);
  ends.reserve(end_slots);
}

void EndTable::close_node() {
  std::sort(ends.begin() + offset.back(), ends.end(),
            [](const End& a, const End& b) { return a.label < b.label; });
  offset.push_back(static_cast<std::int32_t>(ends.size()));
}

namespace {

constexpr std::uint64_t kOdd = 0x9e3779b97f4a7c15ULL;

}  // namespace

// Signatures are grouped through an open-addressed table of class
// representatives. All scratch is allocated once, O(nodes + ends).
Refinement refine(const EndTable& t, int max_rounds) {
  const auto n = t.offset.size() - 1;
  std::size_t capacity = 2;
  while (capacity < 2 * n) capacity *= 2;
  const std::size_t mask = capacity - 1;
  charge_alloc(n * (3 * sizeof(NodeId) + sizeof(std::uint64_t)) +
               capacity * sizeof(NodeId));

  std::vector<NodeId> cls(n, 0);
  std::vector<NodeId> next(n);
  std::vector<NodeId> first(n, 0);
  std::vector<std::uint64_t> hash(n);
  std::vector<NodeId> slot(capacity);

  auto same_signature = [&](std::size_t a, std::size_t b) {
    std::int32_t i = t.offset[a];
    std::int32_t j = t.offset[b];
    const std::int32_t end = t.offset[a + 1];
    if (end - i != t.offset[b + 1] - j) return false;
    for (; i < end; ++i, ++j) {
      const End& x = t.ends[static_cast<std::size_t>(i)];
      const End& y = t.ends[static_cast<std::size_t>(j)];
      if (x.label != y.label ||
          cls[static_cast<std::size_t>(x.other)] !=
              cls[static_cast<std::size_t>(y.other)]) {
        return false;
      }
    }
    return true;
  };

  // Before the first round every node is in class 0, led by node 0.
  NodeId classes = n > 0 ? 1 : 0;
  for (int round = 0; round < max_rounds; ++round) {
    std::fill(slot.begin(), slot.end(), kNoNode);
    classes = 0;
    for (std::size_t v = 0; v < n; ++v) {
      // Per-end words are independent multiplies; only a rotate and an xor
      // sit on the dependency chain through h.
      std::uint64_t h = 0;
      for (std::int32_t i = t.offset[v]; i < t.offset[v + 1]; ++i) {
        const End& x = t.ends[static_cast<std::size_t>(i)];
        const std::uint64_t word =
            (std::uint64_t{x.label} << 32) |
            static_cast<std::uint32_t>(cls[static_cast<std::size_t>(x.other)]);
        h = std::rotl(h, 7) ^ (word * kOdd);
      }
      h = (h ^ (h >> 29)) * kOdd;
      hash[v] = h;
      for (std::size_t s = (h >> 32) & mask;; s = (s + 1) & mask) {
        const NodeId rep = slot[s];
        if (rep == kNoNode) {
          slot[s] = static_cast<NodeId>(v);
          first[static_cast<std::size_t>(classes)] = static_cast<NodeId>(v);
          next[v] = classes++;
          break;
        }
        const auto r = static_cast<std::size_t>(rep);
        if (hash[r] == h && same_signature(r, v)) {
          next[v] = next[r];
          break;
        }
      }
    }
    const bool fixpoint = next == cls;
    cls.swap(next);
    if (fixpoint) break;
  }
  first.resize(static_cast<std::size_t>(classes));
  return {std::move(cls), std::move(first)};
}

}  // namespace ldlb
