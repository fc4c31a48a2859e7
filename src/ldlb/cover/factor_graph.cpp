#include "ldlb/cover/factor_graph.hpp"

#include <vector>

#include "ldlb/cover/covering_map.hpp"
#include "ldlb/cover/refinement.hpp"

namespace ldlb {

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
  Refinement r = refine(table, kToFixpoint);
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

  EndTable table(g.node_count(), g.arc_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (EdgeId a : g.out_arcs(v)) {
      table.ends.push_back(
          {static_cast<std::uint32_t>(g.arc(a).color), g.arc(a).head});
    }
    for (EdgeId a : g.in_arcs(v)) {
      table.ends.push_back({kFlaggedEnd |
                                static_cast<std::uint32_t>(g.arc(a).color),
                            g.arc(a).tail});
    }
    table.close_node();
  }
  Refinement r = refine(table, kToFixpoint);
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
