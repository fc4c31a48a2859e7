// The colour-refinement kernel behind factor graphs (Section 3.4).
//
// Each round gives node v the class of its signature: the sequence of
// (label, current class of the other endpoint) over v's label-sorted ends.
// From one class, after d rounds two nodes share a class iff their depth-d
// views agree; the kernel runs to the fixpoint, where the classes are the
// coarsest equitable partition.
//
// O(rounds · (nodes + ends)) time and O(nodes + ends) scratch, independent
// of label values. Classes are numbered by first occurrence in node order,
// so the result is a pure function of the table.
#pragma once

#include <cstdint>
#include <vector>

#include "ldlb/graph/multigraph.hpp"

namespace ldlb {

/// One edge end as the refinement sees it: a label that is unique among the
/// node's ends under a proper colouring and the endpoint it leads to.
/// Proper colours are non-negative int32, so the top bit of a label is free
/// for a flag (a PO in-end).
struct End {
  std::uint32_t label;
  NodeId other;
};

/// Label flag for a factor-graph in-arc.
inline constexpr std::uint32_t kFlaggedEnd = std::uint32_t{1} << 31;

/// Every node's ends in CSR form, sorted by label within each node: node v
/// owns ends[offset[v] .. offset[v + 1]).
struct EndTable {
  std::vector<std::int32_t> offset;
  std::vector<End> ends;

  EndTable(NodeId nodes, EdgeId edges);

  /// Closes the current node: sorts the ends pushed since the last close.
  void close_node();
};

/// Output of `refine`.
struct Refinement {
  std::vector<NodeId> class_of;
  /// first[c] = the lowest node of class c.
  std::vector<NodeId> first;
};

/// Runs refinement rounds over `table` until a round leaves the partition
/// unchanged. A hash only nominates a class representative; a node joins
/// its class after a structural compare of the two signatures. Charges its
/// scratch through charge_alloc.
[[nodiscard]] Refinement refine(const EndTable& table);

}  // namespace ldlb
