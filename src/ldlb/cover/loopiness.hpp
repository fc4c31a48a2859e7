// Loopiness (Definition 1 of the paper).
//
// The loop count of a node of the factor graph measures the node's inability
// to break local symmetries; a graph is k-loopy when every node of FG
// carries at least k loops, and simply "loopy" when it is 1-loopy. Loopiness
// is the resource the lower-bound adversary consumes (property P2 of
// Section 4.1) and the hypothesis of Lemma 2.
//
// Every loop at a node v of G is a loop of FG at v's class — the loop's one
// end stays inside v's class, and a proper colouring gives distinct loops at
// v distinct colours — so the fewest loops at any node of G bounds the
// loopiness from below. The adversary's unfold and mix steps (§4.3) each
// take at most one loop from a node, so every node of a level-i graph keeps
// at least Δ-1-i loops and (P2) holds by this count alone; is_k_loopy
// decides by the count first and builds the factor graph only when it falls
// short.
#pragma once

#include "ldlb/graph/digraph.hpp"
#include "ldlb/graph/multigraph.hpp"

namespace ldlb {

/// Minimum loop count over the nodes of FG (so the graph is k-loopy for all
/// k up to the returned value). Requires a connected, properly coloured
/// graph. Always builds the factor graph: the exact value.
int loopiness(const Multigraph& g);

/// PO version: counts directed loops in the factor graph.
int loopiness(const Digraph& g);

/// True iff `loopiness(g) >= k`, throwing the same ContractViolation on a
/// disconnected or improperly coloured graph. One pass over the edge list
/// (arcs with tail == head for the PO overload) takes the fewest loops at
/// any node; a k up to that count is decided without a factor graph, and
/// only a larger k falls back to `loopiness`. Under slow_checks_enabled()
/// every verdict the count decides is re-derived through `loopiness`, which
/// must not be below the count.
bool is_k_loopy(const Multigraph& g, int k);
bool is_k_loopy(const Digraph& g, int k);

/// is_k_loopy for a graph its caller has already found connected and
/// properly coloured (the certificate validator computes both for its own
/// findings): the same verdict without re-checking them.
bool is_k_loopy_prechecked(const Multigraph& g, int k);

}  // namespace ldlb
