// Composition EC ⇐ PO ⇐ OI at graph level (Sections 5.1 + 5.3 chained).
//
// Given an order-invariant view algorithm, runs it on an EC multigraph by
// (1) doubling each undirected edge into antiparallel arcs — a loop becomes
// one directed loop — per §5.1, (2) simulating the OI algorithm on the
// canonically ordered universal cover of the doubled digraph per §5.3, and
// (3) folding arc weights back: y_EC({u,v}) = y(u,v) + y(v,u), a loop's
// weight doubling the directed loop's. This is the longest prefix of the
// §5.5 chain expressible as a single graph-level call; the remaining link
// (OI ⇐ ID) is IdAsOi from sim_oi_id.hpp.
#pragma once

#include "ldlb/core/sim_ec_po.hpp"
#include "ldlb/core/sim_po_oi.hpp"
#include "ldlb/graph/multigraph.hpp"

namespace ldlb {

/// Runs an OI algorithm on an EC graph through the full §5.1 + §5.3 chain.
FractionalMatching simulate_oi_on_ec(const Multigraph& g,
                                     OiViewAlgorithm& aoi);

}  // namespace ldlb
