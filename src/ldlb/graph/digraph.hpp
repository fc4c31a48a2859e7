// Directed multigraphs with loops and edge colours (the PO-graphs of the
// paper, Section 3.3, in their "edge-coloured digraph" formulation PO2).
//
// Conventions follow Section 3.5: a directed loop contributes +2 to the
// degree of its node — once as an outgoing edge (the tail) and once as an
// incoming edge (the head). The PO colouring requirement is that the
// outgoing edges at a node carry distinct colours and the incoming edges at
// a node carry distinct colours; an incoming and an outgoing edge may share
// a colour.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "ldlb/graph/multigraph.hpp"
#include "ldlb/util/error.hpp"

namespace ldlb {

/// Directed multigraph with loops and a PO-style edge colouring.
class Digraph {
 public:
  /// One directed edge tail -> head; `tail == head` encodes a loop.
  struct Arc {
    NodeId tail = kNoNode;
    NodeId head = kNoNode;
    Color color = kUncoloured;

    [[nodiscard]] bool is_loop() const { return tail == head; }
  };

  Digraph() = default;
  /// Graph with `n` isolated nodes.
  explicit Digraph(NodeId n) { add_nodes(n); }

  /// Adds one node, returning its id.
  NodeId add_node() {
    out_.emplace_back();
    in_.emplace_back();
    return static_cast<NodeId>(out_.size() - 1);
  }

  /// Adds `count` nodes, returning the id of the first.
  NodeId add_nodes(NodeId count) {
    LDLB_REQUIRE(count >= 0);
    NodeId first = node_count();
    out_.resize(out_.size() + static_cast<std::size_t>(count));
    in_.resize(in_.size() + static_cast<std::size_t>(count));
    return first;
  }

  /// Adds a directed edge (tail -> head), returning its id.
  EdgeId add_arc(NodeId tail, NodeId head, Color color = kUncoloured);

  /// Pre-allocates arc storage (see Multigraph::reserve_edges).
  void reserve_arcs(EdgeId count) {
    LDLB_REQUIRE(count >= 0);
    arcs_.reserve(static_cast<std::size_t>(count));
  }

  /// Pre-allocates node storage (out/in adjacency headers).
  void reserve_nodes(NodeId count) {
    LDLB_REQUIRE(count >= 0);
    out_.reserve(static_cast<std::size_t>(count));
    in_.reserve(static_cast<std::size_t>(count));
  }

  [[nodiscard]] NodeId node_count() const {
    return static_cast<NodeId>(out_.size());
  }
  [[nodiscard]] EdgeId arc_count() const {
    return static_cast<EdgeId>(arcs_.size());
  }

  [[nodiscard]] const Arc& arc(EdgeId e) const {
    LDLB_REQUIRE(e >= 0 && e < arc_count());
    return arcs_[static_cast<std::size_t>(e)];
  }

  /// Ids of arcs leaving `v` (a loop appears here once).
  [[nodiscard]] const std::vector<EdgeId>& out_arcs(NodeId v) const {
    LDLB_REQUIRE(v >= 0 && v < node_count());
    return out_[static_cast<std::size_t>(v)];
  }

  /// Ids of arcs entering `v` (a loop appears here once).
  [[nodiscard]] const std::vector<EdgeId>& in_arcs(NodeId v) const {
    LDLB_REQUIRE(v >= 0 && v < node_count());
    return in_[static_cast<std::size_t>(v)];
  }

  [[nodiscard]] int out_degree(NodeId v) const {
    return static_cast<int>(out_arcs(v).size());
  }
  [[nodiscard]] int in_degree(NodeId v) const {
    return static_cast<int>(in_arcs(v).size());
  }
  /// Degree under the PO convention: in-degree + out-degree, so a loop
  /// counts twice.
  [[nodiscard]] int degree(NodeId v) const {
    return out_degree(v) + in_degree(v);
  }
  [[nodiscard]] int max_degree() const;

  /// Re-colours an arc.
  void set_color(EdgeId e, Color color) {
    LDLB_REQUIRE(e >= 0 && e < arc_count());
    arcs_[static_cast<std::size_t>(e)].color = color;
  }

  /// True iff every arc carries a non-negative colour, outgoing arcs at
  /// each node have distinct colours, and incoming arcs at each node have
  /// distinct colours.
  [[nodiscard]] bool has_proper_po_coloring() const;

  /// Number of distinct colours used (0 when uncoloured arcs exist).
  [[nodiscard]] int color_count() const;

  /// The underlying undirected multigraph: every arc becomes an undirected
  /// edge of the same colour (a directed loop becomes an undirected loop —
  /// note that this changes the degree convention).
  [[nodiscard]] Multigraph underlying_multigraph() const;

  /// Human-readable dump.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<Arc> arcs_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
};

std::ostream& operator<<(std::ostream& os, const Digraph& g);

}  // namespace ldlb
