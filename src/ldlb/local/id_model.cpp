#include "ldlb/local/id_model.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>

namespace ldlb {

bool IdGraph::valid() const {
  if (static_cast<NodeId>(ids.size()) != graph.node_count()) return false;
  std::set<std::uint64_t> seen(ids.begin(), ids.end());
  return seen.size() == ids.size();
}

IdGraph with_sequential_ids(Multigraph g) {
  IdGraph out;
  out.ids.resize(static_cast<std::size_t>(g.node_count()));
  std::iota(out.ids.begin(), out.ids.end(), 0);
  out.graph = std::move(g);
  return out;
}

std::vector<int> ranks_of_ids(const std::vector<std::uint64_t>& ids) {
  std::vector<int> idx(ids.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(),
            [&](int a, int b) { return ids[static_cast<std::size_t>(a)] <
                                        ids[static_cast<std::size_t>(b)]; });
  std::vector<int> ranks(ids.size());
  for (std::size_t pos = 0; pos < idx.size(); ++pos) {
    ranks[static_cast<std::size_t>(idx[pos])] = static_cast<int>(pos);
  }
  return ranks;
}

FractionalMatching run_id_view(const IdGraph& g, IdViewAlgorithm& alg) {
  LDLB_REQUIRE_MSG(g.valid(), "ID-graph has missing or duplicate ids");
  const int t = alg.radius(g.graph.max_degree());
  FractionalMatching result(g.graph.edge_count());
  std::vector<std::optional<Rational>> announced(
      static_cast<std::size_t>(g.graph.edge_count()));

  for (NodeId v = 0; v < g.graph.node_count(); ++v) {
    // View algorithms are *defined* as functions of the materialised ball
    // (eq. (1)).
    Ball ball = extract_ball(g.graph, v, t);
    std::vector<std::uint64_t> ids;
    ids.reserve(ball.to_host.size());
    for (NodeId host : ball.to_host) {
      ids.push_back(g.ids[static_cast<std::size_t>(host)]);
    }
    std::vector<Rational> weights = alg.run(ball, ids);
    const auto& incident = ball.graph.incident_edges(ball.center);
    LDLB_ENSURE_MSG(weights.size() == incident.size(),
                    "algorithm '" << alg.name()
                                  << "' returned wrong output arity");
    // Map ball-local incident edges back to host edges. The ball preserves
    // the relative order of the host's incident edges at the centre, so we
    // can walk both lists in parallel; every incident edge of the host is
    // inside any radius >= 1 ball (and for t = 0 there are none).
    const auto& host_incident = g.graph.incident_edges(v);
    if (t == 0) {
      LDLB_ENSURE(incident.empty());
      continue;
    }
    LDLB_ENSURE(incident.size() == host_incident.size());
    for (std::size_t k = 0; k < incident.size(); ++k) {
      EdgeId host_edge = host_incident[k];
      auto& slot = announced[static_cast<std::size_t>(host_edge)];
      if (!slot) {
        slot = weights[k];
      } else {
        LDLB_ENSURE_MSG(
            *slot == weights[k],
            "algorithm '" << alg.name() << "' announced inconsistent weights "
                          << *slot << " vs " << weights[k] << " on edge "
                          << host_edge);
      }
    }
  }
  for (EdgeId e = 0; e < g.graph.edge_count(); ++e) {
    LDLB_ENSURE(announced[static_cast<std::size_t>(e)].has_value());
    result.set_weight(e, *announced[static_cast<std::size_t>(e)]);
  }
  return result;
}

std::vector<Rational> OiAsId::run(const Ball& ball,
                                  const std::vector<std::uint64_t>& ids) {
  return inner_->run(ball.graph, ball.center, ranks_of_ids(ids));
}

}  // namespace ldlb
