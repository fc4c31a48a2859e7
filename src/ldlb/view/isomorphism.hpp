// Rooted isomorphism of properly coloured graphs, and property (P1).
//
// In a properly edge-coloured graph each node has at most one incident end
// per colour, so a colour-preserving isomorphism between connected graphs is
// *determined* by the image of a single node: fixing root ↦ root forces the
// images of all neighbours colour-by-colour. Isomorphism testing therefore
// reduces to one deterministic propagation pass — no search.
//
// Property (P1) of the lower-bound construction,
//     τ_i(G_i, g_i) ≅ τ_i(H_i, h_i),
// is decided without materialising either ball: one breadth-first walk over
// the two balls in lockstep from (g_i, h_i), forced colour by colour, on
// balls that are properly coloured trees-with-loops (property (P3)). Other
// shapes fall back to ball extraction plus propagation.
#pragma once

#include <optional>
#include <vector>

#include "ldlb/graph/digraph.hpp"
#include "ldlb/graph/multigraph.hpp"
#include "ldlb/view/ball.hpp"

namespace ldlb {

/// If the connected, properly coloured graphs (g, root_g) and (h, root_h)
/// are isomorphic as rooted edge-coloured multigraphs, returns the (unique)
/// isomorphism as a vector indexed by V(g); otherwise nullopt.
std::optional<std::vector<NodeId>> rooted_isomorphism(const Multigraph& g,
                                                      NodeId root_g,
                                                      const Multigraph& h,
                                                      NodeId root_h);

/// Convenience predicate over `rooted_isomorphism`.
bool rooted_isomorphic(const Multigraph& g, NodeId root_g, const Multigraph& h,
                       NodeId root_h);

/// Rooted isomorphism for PO digraphs (colour- and orientation-preserving).
std::optional<std::vector<NodeId>> rooted_isomorphism(const Digraph& g,
                                                      NodeId root_g,
                                                      const Digraph& h,
                                                      NodeId root_h);

bool rooted_isomorphic(const Digraph& g, NodeId root_g, const Digraph& h,
                       NodeId root_h);

/// True iff two balls are isomorphic as rooted coloured graphs.
bool balls_isomorphic(const Ball& a, const Ball& b);

/// True iff τ_radius(g, gv) ≅ τ_radius(h, hv) as rooted edge-coloured
/// graphs, i.e. `balls_isomorphic(extract_ball(g, gv, radius),
/// extract_ball(h, hv, radius))`. One lockstep walk of the two balls
/// decides it, with O(|V(g)| + |V(h)|) scratch charged through
/// charge_alloc, whatever the colour values; a walk that meets a cycle,
/// parallel edges or an uncoloured edge inside a ball hands the question
/// to extraction. A pure function of its arguments: nothing is cached
/// between calls. Under slow_checks_enabled() every walk verdict is
/// re-derived through ball extraction, and a disagreement aborts.
bool balls_isomorphic(const Multigraph& g, NodeId gv, const Multigraph& h,
                      NodeId hv, int radius);

// Kept only because perfbench/ compiles against these names; the next
// benchmark change deletes them. Nothing else may call them.

/// Alias of balls_isomorphic(g, gv, h, hv, radius).
inline bool balls_isomorphic_cached(const Multigraph& g, NodeId gv,
                                    const Multigraph& h, NodeId hv,
                                    int radius) {
  return balls_isomorphic(g, gv, h, hv, radius);
}

/// No-op: P1 holds no cache to clear.
inline void clear_ball_encoding_cache() {}

}  // namespace ldlb
