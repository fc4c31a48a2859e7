// Factor graphs (Section 3.4) via colour refinement.
//
// The factor graph FG of a connected edge-coloured graph G is the smallest
// graph F such that G is a lift of F. For properly coloured graphs FG is the
// quotient of G by the coarsest equitable partition: nodes are grouped by
// iteratively refining classes on the signature
//     { (edge colour, class of the other endpoint) : incident ends },
// and the quotient inherits one end per (class, colour). An end staying
// inside its own class becomes a loop of the quotient — an undirected
// (half-)loop for EC graphs, a directed loop for PO graphs, matching the
// degree conventions of Section 3.5 (cf. Figure 3).
//
// Both overloads run the flat refinement kernel of cover/refinement.hpp to
// its fixpoint: O(rounds · (nodes + ends)) time and O(nodes + ends)
// scratch, independent of colour values. Classes are numbered by first
// occurrence in node order, so class_of and the quotient are a pure
// function of the input graph.
#pragma once

#include <vector>

#include "ldlb/graph/digraph.hpp"
#include "ldlb/graph/multigraph.hpp"

namespace ldlb {

/// Factor graph of an EC multigraph together with the quotient map.
struct FactorGraph {
  Multigraph graph;
  /// class_of[v] = node of `graph` that v maps to.
  std::vector<NodeId> class_of;
};

/// Factor graph of a PO digraph together with the quotient map.
struct DiFactorGraph {
  Digraph graph;
  std::vector<NodeId> class_of;
};

/// Computes FG for a connected, properly edge-coloured multigraph. The
/// returned quotient map is a covering map (validated internally).
FactorGraph factor_graph(const Multigraph& g);

/// Computes FG for a connected, properly PO-coloured digraph.
DiFactorGraph factor_graph(const Digraph& g);

}  // namespace ldlb
