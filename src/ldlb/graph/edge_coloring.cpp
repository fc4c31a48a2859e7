#include "ldlb/graph/edge_coloring.hpp"

#include <algorithm>
#include <set>
#include <unordered_set>

namespace ldlb {

Multigraph greedy_edge_coloring(const Multigraph& g) {
  Multigraph out(g.node_count());
  // used[v] = colours already present at v.
  std::vector<std::unordered_set<Color>> used(
      static_cast<std::size_t>(g.node_count()));
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto& ed = g.edge(e);
    Color c = 0;
    while (used[static_cast<std::size_t>(ed.u)].count(c) != 0 ||
           used[static_cast<std::size_t>(ed.v)].count(c) != 0) {
      ++c;
    }
    out.add_edge(ed.u, ed.v, c);
    used[static_cast<std::size_t>(ed.u)].insert(c);
    used[static_cast<std::size_t>(ed.v)].insert(c);
  }
  LDLB_ENSURE(out.has_proper_edge_coloring());
  return out;
}

Digraph greedy_po_coloring(const Digraph& g) {
  Digraph out(g.node_count());
  std::vector<std::unordered_set<Color>> out_used(
      static_cast<std::size_t>(g.node_count()));
  std::vector<std::unordered_set<Color>> in_used(
      static_cast<std::size_t>(g.node_count()));
  for (EdgeId e = 0; e < g.arc_count(); ++e) {
    const auto& a = g.arc(e);
    Color c = 0;
    while (out_used[static_cast<std::size_t>(a.tail)].count(c) != 0 ||
           in_used[static_cast<std::size_t>(a.head)].count(c) != 0) {
      ++c;
    }
    out.add_arc(a.tail, a.head, c);
    out_used[static_cast<std::size_t>(a.tail)].insert(c);
    in_used[static_cast<std::size_t>(a.head)].insert(c);
  }
  LDLB_ENSURE(out.has_proper_po_coloring());
  return out;
}

int colors_used(const Multigraph& g) {
  std::set<Color> colors;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    LDLB_REQUIRE(g.edge(e).color != kUncoloured);
    colors.insert(g.edge(e).color);
  }
  return static_cast<int>(colors.size());
}

std::optional<ColorClasses> color_classes(const Multigraph& g,
                                          int num_colors) {
  LDLB_REQUIRE(num_colors >= 0);
  // The histogram spans the whole colour budget, so the range check and the
  // count share one pass with no prior max_color scan.
  ColorClasses out;
  out.offsets.assign(static_cast<std::size_t>(num_colors) + 1, 0);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Color c = g.edge(e).color;
    if (c < 0 || c >= num_colors) return std::nullopt;
    ++out.offsets[static_cast<std::size_t>(c) + 1];
    out.max_color = std::max(out.max_color, c);
  }
  for (std::size_t c = 1; c < out.offsets.size(); ++c) {
    out.offsets[c] += out.offsets[c - 1];
  }
  out.edges.resize(static_cast<std::size_t>(g.edge_count()));
  std::vector<std::int32_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    out.edges[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(g.edge(e).color)]++)] = e;
  }
  return out;
}

}  // namespace ldlb
