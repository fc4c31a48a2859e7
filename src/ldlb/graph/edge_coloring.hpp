// Proper edge colourings.
//
// The EC model (Section 2.1) assumes a proper edge colouring with O(Δ)
// colours is given. This module provides:
//   * a greedy proper colouring with at most 2Δ-1 colours for multigraphs
//     without parallel edges sharing... (in general at most 2Δ-1 for simple
//     graphs; for multigraphs with loops, at most deg(u)+deg(v)-1 colours
//     locally, still O(Δ));
//   * an exact Δ-colouring for bipartite *regular* graphs via Euler splits
//     (used by the max-fractional-matching baseline);
//   * a greedy PO colouring for digraphs (outgoing distinct, incoming
//     distinct — at most Δ colours are needed greedily... bounded by
//     max(in,out) degrees at both endpoints).
// All colourings are validated by the callers through
// `Multigraph::has_proper_edge_coloring` / `Digraph::has_proper_po_coloring`.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "ldlb/graph/digraph.hpp"
#include "ldlb/graph/multigraph.hpp"

namespace ldlb {

/// Returns a copy of `g` with a greedy proper edge colouring (each edge gets
/// the smallest colour not already used at either endpoint). Uses at most
/// 2Δ-1 colours; works on multigraphs with loops.
Multigraph greedy_edge_coloring(const Multigraph& g);

/// Returns a copy of `g` with a greedy PO colouring (each arc gets the
/// smallest colour not used by the tail's other out-arcs nor the head's
/// other in-arcs). Uses at most in+out-1 <= 2Δ-1 colours.
Digraph greedy_po_coloring(const Digraph& g);

/// Number of colours a colouring uses; requires the graph to be fully
/// coloured.
int colors_used(const Multigraph& g);

/// Edge ids grouped by colour (a counting sort): class c is
/// `edges[offsets[c] .. offsets[c + 1])`, ids ascending within a class.
struct ColorClasses {
  std::vector<std::int32_t> offsets;  ///< num_colors + 1 prefix sums
  std::vector<EdgeId> edges;
  Color max_color = -1;  ///< largest colour present; -1 when edgeless
};

/// Colour classes of `g` under a colour budget of `num_colors`, in one pass
/// over the edges; nullopt when some edge colour lies outside
/// [0, num_colors). The colour-sweep closed forms (SeqColorPacking,
/// TwoPhasePacking) settle one class per round, and decline, via nullopt,
/// exactly the input their node machines reject.
std::optional<ColorClasses> color_classes(const Multigraph& g,
                                          int num_colors);

}  // namespace ldlb
