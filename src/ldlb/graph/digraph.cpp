#include "ldlb/graph/digraph.hpp"

#include <algorithm>
#include <ostream>
#include <set>
#include <sstream>

namespace ldlb {

EdgeId Digraph::add_arc(NodeId tail, NodeId head, Color color) {
  LDLB_REQUIRE(tail >= 0 && tail < node_count());
  LDLB_REQUIRE(head >= 0 && head < node_count());
  EdgeId e = static_cast<EdgeId>(arcs_.size());
  arcs_.push_back(Arc{tail, head, color});
  out_[static_cast<std::size_t>(tail)].push_back(e);
  in_[static_cast<std::size_t>(head)].push_back(e);
  return e;
}

int Digraph::max_degree() const {
  int d = 0;
  for (NodeId v = 0; v < node_count(); ++v) d = std::max(d, degree(v));
  return d;
}

bool Digraph::has_proper_po_coloring() const {
  Color max_color = 0;
  for (const Arc& a : arcs_) {
    if (a.color < 0) return false;  // uncoloured, or not a colour at all
    max_color = std::max(max_color, a.color);
  }
  // As in Multigraph::has_proper_edge_coloring: this guards every PO run and
  // every §5.1 doubling, so no hash set per node. Stamp arrays over the
  // colour range (seen[c] = last node with an arc end of colour c on that
  // side) while colours fit the graph's size; past that, sort each node's
  // colours so a colour near 2^31 costs no colour-sized memory.
  const bool stamp = static_cast<std::size_t>(max_color) <
                     static_cast<std::size_t>(node_count()) + arcs_.size();
  std::vector<NodeId> seen_out(stamp ? max_color + 1 : 0, kNoNode);
  std::vector<NodeId> seen_in(seen_out);
  std::vector<Color> at;
  auto distinct = [&](const std::vector<EdgeId>& ids, std::vector<NodeId>& seen,
                      NodeId v) {
    if (stamp) {
      for (EdgeId e : ids) {
        auto& slot = seen[static_cast<std::size_t>(
            arcs_[static_cast<std::size_t>(e)].color)];
        if (slot == v) return false;
        slot = v;
      }
      return true;
    }
    at.clear();
    for (EdgeId e : ids) at.push_back(arcs_[static_cast<std::size_t>(e)].color);
    std::sort(at.begin(), at.end());
    return std::adjacent_find(at.begin(), at.end()) == at.end();
  };
  for (NodeId v = 0; v < node_count(); ++v) {
    if (!distinct(out_[static_cast<std::size_t>(v)], seen_out, v) ||
        !distinct(in_[static_cast<std::size_t>(v)], seen_in, v)) {
      return false;
    }
  }
  return true;
}

int Digraph::color_count() const {
  std::set<Color> colors;
  for (const Arc& a : arcs_) {
    if (a.color == kUncoloured) return 0;
    colors.insert(a.color);
  }
  return static_cast<int>(colors.size());
}

Multigraph Digraph::underlying_multigraph() const {
  Multigraph g(node_count());
  for (const Arc& a : arcs_) g.add_edge(a.tail, a.head, a.color);
  return g;
}

std::string Digraph::to_string() const {
  std::ostringstream os;
  os << "Digraph(n=" << node_count() << ", m=" << arc_count() << ")";
  for (EdgeId e = 0; e < arc_count(); ++e) {
    const Arc& a = arc(e);
    os << "\n  a" << e << ": (" << a.tail << " -> " << a.head << ")";
    if (a.is_loop()) os << " (loop)";
    if (a.color != kUncoloured) os << " colour " << a.color;
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Digraph& g) {
  return os << g.to_string();
}

}  // namespace ldlb
