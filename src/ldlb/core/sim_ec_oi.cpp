#include "ldlb/core/sim_ec_oi.hpp"

namespace ldlb {

FractionalMatching simulate_oi_on_ec(const Multigraph& g,
                                     OiViewAlgorithm& aoi) {
  DoubledGraph doubled = double_ec_graph(g);
  FractionalMatching po = simulate_oi_on_po(doubled.digraph, aoi);
  FractionalMatching ec(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    auto [a1, a2] = doubled.arc_of_edge[static_cast<std::size_t>(e)];
    // y_EC = y(u,v) + y(v,u); a directed loop's weight counts twice.
    Rational w = po.weight(a1);
    w += a2 == kNoEdge ? po.weight(a1) : po.weight(a2);
    ec.set_weight(e, w);
  }
  return ec;
}

}  // namespace ldlb
