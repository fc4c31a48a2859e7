#include "ldlb/cover/factor_graph.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "ldlb/cover/covering_map.hpp"

namespace ldlb {

namespace {

// One edge end as the refinement sees it: a label that is unique among the
// node's ends under a proper colouring (EC: the colour; PO: direction, then
// colour) and the endpoint it leads to (the node itself for a loop). Proper
// colours are non-negative int32, so a PO label fits 32 bits with the
// direction in the top bit.
struct End {
  std::uint32_t label;
  NodeId other;
};

// Every node's ends in CSR form, sorted by label within each node: node v
// owns ends[offset[v] .. offset[v + 1]).
struct EndTable {
  std::vector<std::int32_t> offset;
  std::vector<End> ends;

  EndTable(NodeId nodes, EdgeId edges) {
    offset.reserve(static_cast<std::size_t>(nodes) + 1);
    offset.push_back(0);
    ends.reserve(2 * static_cast<std::size_t>(edges));
  }

  // Closes the current node: sorts the ends pushed since the last close.
  void close_node() {
    std::sort(ends.begin() + offset.back(), ends.end(),
              [](const End& a, const End& b) { return a.label < b.label; });
    offset.push_back(static_cast<std::int32_t>(ends.size()));
  }
};

struct Refinement {
  std::vector<NodeId> class_of;
  // first[c] = the lowest node of class c.
  std::vector<NodeId> first;
};

constexpr std::uint64_t kOdd = 0x9e3779b97f4a7c15ULL;

// Colour refinement to the coarsest equitable partition. Each round gives
// node v the class of its signature, the sequence of (label, current class
// of the other endpoint) over its label-sorted ends; classes are numbered
// by first occurrence in node order, and the rounds stop when the labelling
// repeats. Signatures are grouped through an open-addressed table of class
// representatives: a hash match only nominates a representative, and v
// joins its class after a structural compare. All scratch is allocated
// once, O(nodes + ends).
Refinement refine(const EndTable& t) {
  const auto n = t.offset.size() - 1;
  std::size_t capacity = 2;
  while (capacity < 2 * n) capacity *= 2;
  const std::size_t mask = capacity - 1;

  std::vector<NodeId> cls(n, 0);
  std::vector<NodeId> next(n);
  std::vector<NodeId> first(n);
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

  for (;;) {
    std::fill(slot.begin(), slot.end(), kNoNode);
    NodeId classes = 0;
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
    if (next == cls) {
      first.resize(static_cast<std::size_t>(classes));
      return {std::move(cls), std::move(first)};
    }
    cls.swap(next);
  }
}

}  // namespace

FactorGraph factor_graph(const Multigraph& g) {
  LDLB_REQUIRE_MSG(g.has_proper_edge_coloring(),
                   "factor_graph requires a proper edge colouring");
  LDLB_REQUIRE_MSG(g.is_connected(), "factor_graph requires connectivity");

  EndTable table(g.node_count(), g.edge_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (EdgeId e : g.incident_edges(v)) {
      const Multigraph::Edge& ed = g.edge(e);
      table.ends.push_back({static_cast<std::uint32_t>(ed.color),
                            ed.u == v ? ed.v : ed.u});
    }
    table.close_node();
  }
  Refinement r = refine(table);
  const auto class_count = static_cast<NodeId>(r.first.size());

  FactorGraph out;
  out.class_of = std::move(r.class_of);
  out.graph.add_nodes(class_count);
  // Build quotient edges from each representative's ends. Properness means
  // one end per colour per node, so each (class, colour) pair yields exactly
  // one quotient end; an end into the node's own class becomes a loop, an
  // end into another class becomes half of a cross edge (added once, from
  // the lower class id, to avoid duplication).
  for (NodeId c = 0; c < class_count; ++c) {
    NodeId v = r.first[static_cast<std::size_t>(c)];
    for (EdgeId e : g.incident_edges(v)) {
      NodeId w = g.other_endpoint(e, v);
      NodeId d = out.class_of[static_cast<std::size_t>(w)];
      Color color = g.edge(e).color;
      if (d == c) {
        out.graph.add_edge(c, c, color);  // loop (one end, EC convention)
      } else if (c < d) {
        out.graph.add_edge(c, d, color);
      }
    }
  }
  LDLB_ENSURE_MSG(is_covering_map(g, out.graph, out.class_of),
                  "factor graph quotient is not a covering");
  return out;
}

DiFactorGraph factor_graph(const Digraph& g) {
  LDLB_REQUIRE_MSG(g.has_proper_po_coloring(),
                   "factor_graph requires a proper PO colouring");
  LDLB_REQUIRE_MSG(g.underlying_multigraph().is_connected(),
                   "factor_graph requires connectivity");

  constexpr std::uint32_t kInEnd = std::uint32_t{1} << 31;
  EndTable table(g.node_count(), g.arc_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (EdgeId a : g.out_arcs(v)) {
      table.ends.push_back(
          {static_cast<std::uint32_t>(g.arc(a).color), g.arc(a).head});
    }
    for (EdgeId a : g.in_arcs(v)) {
      table.ends.push_back(
          {kInEnd | static_cast<std::uint32_t>(g.arc(a).color), g.arc(a).tail});
    }
    table.close_node();
  }
  Refinement r = refine(table);
  const auto class_count = static_cast<NodeId>(r.first.size());

  DiFactorGraph out;
  out.class_of = std::move(r.class_of);
  out.graph.add_nodes(class_count);
  // Arcs are emitted from the tail side only; equitability guarantees the
  // head side sees the matching in-end counts.
  for (NodeId c = 0; c < class_count; ++c) {
    NodeId v = r.first[static_cast<std::size_t>(c)];
    for (EdgeId a : g.out_arcs(v)) {
      NodeId d = out.class_of[static_cast<std::size_t>(g.arc(a).head)];
      out.graph.add_arc(c, d, g.arc(a).color);
    }
  }
  LDLB_ENSURE_MSG(is_covering_map(g, out.graph, out.class_of),
                  "factor graph quotient is not a covering");
  return out;
}

}  // namespace ldlb
