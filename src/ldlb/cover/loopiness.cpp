#include "ldlb/cover/loopiness.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "ldlb/cover/factor_graph.hpp"
#include "ldlb/util/slow_checks.hpp"

namespace ldlb {

namespace {

// Fewest loops at any node of `g` (0 for the empty graph), in one pass over
// the edge list. Every loop at v is a loop of FG at v's class, so this is a
// lower bound on loopiness(g).
int fewest_loops(const Multigraph& g) {
  if (g.node_count() == 0) return 0;
  std::vector<int> loops(static_cast<std::size_t>(g.node_count()), 0);
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Multigraph::Edge& ed = g.edge(e);
    if (ed.is_loop()) ++loops[static_cast<std::size_t>(ed.u)];
  }
  return *std::min_element(loops.begin(), loops.end());
}

int fewest_loops(const Digraph& g) {
  if (g.node_count() == 0) return 0;
  std::vector<int> loops(static_cast<std::size_t>(g.node_count()), 0);
  for (EdgeId a = 0; a < g.arc_count(); ++a) {
    const Digraph::Arc& arc = g.arc(a);
    if (arc.is_loop()) ++loops[static_cast<std::size_t>(arc.tail)];
  }
  return *std::min_element(loops.begin(), loops.end());
}

// The verdict for a graph already known to be connected and properly
// coloured: the count when it reaches k, the factor graph otherwise.
template <class Graph>
bool decide_k_loopy(const Graph& g, int k) {
  const int count = fewest_loops(g);
  if (count < k) return loopiness(g) >= k;
  if (slow_checks_enabled()) {
    // Debug oracle (util/slow_checks.hpp): the count is a lower bound.
    const int exact = loopiness(g);
    LDLB_ENSURE_MSG(exact >= count, "loopiness " << exact
                                                 << " is below the fewest "
                                                 << "loops at a node, "
                                                 << count);
  }
  return true;
}

}  // namespace

int loopiness(const Multigraph& g) {
  FactorGraph fg = factor_graph(g);
  int min_loops = std::numeric_limits<int>::max();
  for (NodeId v = 0; v < fg.graph.node_count(); ++v) {
    min_loops = std::min(min_loops, fg.graph.loop_count(v));
  }
  return fg.graph.node_count() == 0 ? 0 : min_loops;
}

int loopiness(const Digraph& g) {
  DiFactorGraph fg = factor_graph(g);
  int min_loops = std::numeric_limits<int>::max();
  for (NodeId v = 0; v < fg.graph.node_count(); ++v) {
    int loops = 0;
    for (EdgeId a : fg.graph.out_arcs(v)) {
      if (fg.graph.arc(a).is_loop()) ++loops;
    }
    min_loops = std::min(min_loops, loops);
  }
  return fg.graph.node_count() == 0 ? 0 : min_loops;
}

bool is_k_loopy(const Multigraph& g, int k) {
  LDLB_REQUIRE_MSG(g.has_proper_edge_coloring(),
                   "is_k_loopy requires a proper edge colouring");
  LDLB_REQUIRE_MSG(g.is_connected(), "is_k_loopy requires connectivity");
  return decide_k_loopy(g, k);
}

bool is_k_loopy(const Digraph& g, int k) {
  LDLB_REQUIRE_MSG(g.has_proper_po_coloring(),
                   "is_k_loopy requires a proper PO colouring");
  LDLB_REQUIRE_MSG(g.underlying_multigraph().is_connected(),
                   "is_k_loopy requires connectivity");
  return decide_k_loopy(g, k);
}

bool is_k_loopy_prechecked(const Multigraph& g, int k) {
  return decide_k_loopy(g, k);
}

}  // namespace ldlb
