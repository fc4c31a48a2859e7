#include "ldlb/graph/digraph.hpp"

#include <algorithm>
#include <ostream>
#include <set>
#include <sstream>
#include <unordered_set>

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
  for (NodeId v = 0; v < node_count(); ++v) {
    std::unordered_set<Color> out_colors;
    for (EdgeId e : out_arcs(v)) {
      Color c = arc(e).color;
      if (c < 0) return false;  // uncoloured, or not a colour at all
      if (!out_colors.insert(c).second) return false;
    }
    std::unordered_set<Color> in_colors;
    for (EdgeId e : in_arcs(v)) {
      Color c = arc(e).color;
      if (c < 0) return false;  // uncoloured, or not a colour at all
      if (!in_colors.insert(c).second) return false;
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
