#include "ldlb/view/isomorphism.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <tuple>
#include <utility>

#include "ldlb/util/alloc_guard.hpp"
#include "ldlb/util/slow_checks.hpp"

namespace ldlb {

namespace {

// colour -> (other endpoint, edge id) at node v.
std::map<Color, std::pair<NodeId, EdgeId>> ends_at(const Multigraph& g,
                                                   NodeId v) {
  std::map<Color, std::pair<NodeId, EdgeId>> out;
  for (EdgeId e : g.incident_edges(v)) {
    out[g.edge(e).color] = {g.other_endpoint(e, v), e};
  }
  return out;
}

}  // namespace

std::optional<std::vector<NodeId>> rooted_isomorphism(const Multigraph& g,
                                                      NodeId root_g,
                                                      const Multigraph& h,
                                                      NodeId root_h) {
  if (!g.has_proper_edge_coloring() || !h.has_proper_edge_coloring()) {
    return std::nullopt;
  }
  if (!g.is_connected() || g.node_count() != h.node_count() ||
      g.edge_count() != h.edge_count()) {
    return std::nullopt;
  }
  std::vector<NodeId> phi(static_cast<std::size_t>(g.node_count()), kNoNode);
  std::vector<NodeId> used(static_cast<std::size_t>(h.node_count()), kNoNode);
  phi[static_cast<std::size_t>(root_g)] = root_h;
  used[static_cast<std::size_t>(root_h)] = root_g;
  std::deque<NodeId> queue{root_g};
  while (!queue.empty()) {
    NodeId u = queue.front();
    queue.pop_front();
    NodeId u2 = phi[static_cast<std::size_t>(u)];
    auto ends_g = ends_at(g, u);
    auto ends_h = ends_at(h, u2);
    if (ends_g.size() != ends_h.size()) return std::nullopt;
    for (const auto& [color, wg] : ends_g) {
      auto it = ends_h.find(color);
      if (it == ends_h.end()) return std::nullopt;
      NodeId w = wg.first;
      NodeId w2 = it->second.first;
      NodeId& img = phi[static_cast<std::size_t>(w)];
      if (img == kNoNode) {
        if (used[static_cast<std::size_t>(w2)] != kNoNode) return std::nullopt;
        img = w2;
        used[static_cast<std::size_t>(w2)] = w;
        queue.push_back(w);
      } else if (img != w2) {
        return std::nullopt;
      }
    }
  }
  // g connected => everything matched; node/edge counts equal and ends match
  // locally, so phi is an isomorphism.
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (phi[static_cast<std::size_t>(v)] == kNoNode) return std::nullopt;
  }
  return phi;
}

bool rooted_isomorphic(const Multigraph& g, NodeId root_g, const Multigraph& h,
                       NodeId root_h) {
  return rooted_isomorphism(g, root_g, h, root_h).has_value();
}

namespace {

std::map<std::tuple<int, Color>, NodeId> arc_ends_at(const Digraph& g,
                                                     NodeId v) {
  std::map<std::tuple<int, Color>, NodeId> out;
  for (EdgeId a : g.out_arcs(v)) out[{0, g.arc(a).color}] = g.arc(a).head;
  for (EdgeId a : g.in_arcs(v)) out[{1, g.arc(a).color}] = g.arc(a).tail;
  return out;
}

}  // namespace

std::optional<std::vector<NodeId>> rooted_isomorphism(const Digraph& g,
                                                      NodeId root_g,
                                                      const Digraph& h,
                                                      NodeId root_h) {
  if (!g.has_proper_po_coloring() || !h.has_proper_po_coloring()) {
    return std::nullopt;
  }
  if (!g.underlying_multigraph().is_connected() ||
      g.node_count() != h.node_count() || g.arc_count() != h.arc_count()) {
    return std::nullopt;
  }
  std::vector<NodeId> phi(static_cast<std::size_t>(g.node_count()), kNoNode);
  std::vector<NodeId> used(static_cast<std::size_t>(h.node_count()), kNoNode);
  phi[static_cast<std::size_t>(root_g)] = root_h;
  used[static_cast<std::size_t>(root_h)] = root_g;
  std::deque<NodeId> queue{root_g};
  while (!queue.empty()) {
    NodeId u = queue.front();
    queue.pop_front();
    NodeId u2 = phi[static_cast<std::size_t>(u)];
    auto ends_g = arc_ends_at(g, u);
    auto ends_h = arc_ends_at(h, u2);
    if (ends_g.size() != ends_h.size()) return std::nullopt;
    for (const auto& [key, w] : ends_g) {
      auto it = ends_h.find(key);
      if (it == ends_h.end()) return std::nullopt;
      NodeId w2 = it->second;
      NodeId& img = phi[static_cast<std::size_t>(w)];
      if (img == kNoNode) {
        if (used[static_cast<std::size_t>(w2)] != kNoNode) return std::nullopt;
        img = w2;
        used[static_cast<std::size_t>(w2)] = w;
        queue.push_back(w);
      } else if (img != w2) {
        return std::nullopt;
      }
    }
  }
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (phi[static_cast<std::size_t>(v)] == kNoNode) return std::nullopt;
  }
  return phi;
}

bool rooted_isomorphic(const Digraph& g, NodeId root_g, const Digraph& h,
                       NodeId root_h) {
  return rooted_isomorphism(g, root_g, h, root_h).has_value();
}

bool balls_isomorphic(const Ball& a, const Ball& b) {
  return a.radius == b.radius &&
         rooted_isomorphic(a.graph, a.center, b.graph, b.center);
}

namespace {

// One end at a node; `other` is the node itself for a loop.
struct WalkEnd {
  Color colour;
  EdgeId edge;
  NodeId other;
};

// Writes `v`'s ends in colour order to the front of `out`, growing it (and
// charging the growth) to fit. Returns the number of ends, or nullopt if one
// is uncoloured.
std::optional<std::size_t> ends_by_colour(const Multigraph& g, NodeId v,
                                          std::vector<WalkEnd>& out) {
  const IncidenceView ends = g.incident_edges(v);
  if (out.size() < ends.size()) {
    charge_alloc(ends.size() * sizeof(WalkEnd));
    out.resize(ends.size());
  }
  WalkEnd* last = out.data();
  for (EdgeId e : ends) {
    const Multigraph::Edge& ed = g.edge(e);
    if (ed.color < 0) return std::nullopt;
    *last++ = {ed.color, e, ed.u == v ? ed.v : ed.u};
  }
  std::sort(out.data(), last, [](const WalkEnd& a, const WalkEnd& b) {
    return a.colour < b.colour;
  });
  return ends.size();
}

// Walks τ_radius(g, gv) and τ_radius(h, hv) breadth first in lockstep. In a
// properly coloured ball the root's image forces every other image colour
// by colour, so each pair (u, u') at depth < radius, all of whose edges lie
// in the ball, must match end for end: the same colours, and a loop where
// the partner has one. The edges that entered u and u' share a colour, so
// the colour match pairs them; every other end leads to a new pair one
// level down. A mismatch, or a colour twice at u (an improper ball, which
// extraction rejects too), returns false. Pairs at depth `radius` are not
// expanded: their other edges lie at edge distance radius + 1, outside the
// ball (view/ball.hpp). A node entered twice (a cycle or parallel edges in
// a ball) or an uncoloured edge returns nullopt: undecided.
std::optional<bool> walk_balls(const Multigraph& g, NodeId gv,
                               const Multigraph& h, NodeId hv, int radius) {
  constexpr EdgeId kUnreached = -2;
  const auto ng = static_cast<std::size_t>(g.node_count());
  const auto nh = static_cast<std::size_t>(h.node_count());
  // Each node is entered at most once.
  const std::size_t max_pairs = std::min(ng, nh);
  charge_alloc(ng * sizeof(EdgeId) + nh +
               max_pairs * sizeof(std::pair<NodeId, NodeId>));
  // The edge the walk entered each node of g by (kNoEdge at the root), and
  // whether it has reached each node of h.
  std::vector<EdgeId> entered(ng, kUnreached);
  std::vector<char> reached(nh, 0);
  std::vector<std::pair<NodeId, NodeId>> queue;
  queue.reserve(max_pairs);
  std::vector<WalkEnd> ends_g;
  std::vector<WalkEnd> ends_h;
  entered[static_cast<std::size_t>(gv)] = kNoEdge;
  reached[static_cast<std::size_t>(hv)] = 1;
  queue.push_back({gv, hv});
  std::size_t head = 0;
  for (int depth = 0; depth < radius && head < queue.size(); ++depth) {
    for (const std::size_t frontier_end = queue.size(); head < frontier_end;
         ++head) {
      const auto [u, u2] = queue[head];
      const std::optional<std::size_t> degree = ends_by_colour(g, u, ends_g);
      const std::optional<std::size_t> degree2 = ends_by_colour(h, u2, ends_h);
      if (!degree || !degree2) return std::nullopt;
      if (*degree != *degree2) return false;
      const EdgeId in = entered[static_cast<std::size_t>(u)];
      for (std::size_t k = 0; k < *degree; ++k) {
        const WalkEnd& x = ends_g[k];
        const WalkEnd& y = ends_h[k];
        // Distinct colours at u, matched position by position, are
        // distinct at u' too.
        if (x.colour != y.colour ||
            (k > 0 && x.colour == ends_g[k - 1].colour)) {
          return false;
        }
        const bool loop = x.other == u;
        if (loop != (y.other == u2)) return false;
        if (loop || x.edge == in) continue;
        EdgeId& w = entered[static_cast<std::size_t>(x.other)];
        char& w2 = reached[static_cast<std::size_t>(y.other)];
        if (w != kUnreached || w2 != 0) return std::nullopt;
        w = x.edge;
        w2 = 1;
        queue.push_back({x.other, y.other});
      }
    }
  }
  return true;
}

}  // namespace

bool balls_isomorphic(const Multigraph& g, NodeId gv, const Multigraph& h,
                      NodeId hv, int radius) {
  LDLB_REQUIRE(gv >= 0 && gv < g.node_count());
  LDLB_REQUIRE(hv >= 0 && hv < h.node_count());
  LDLB_REQUIRE(radius >= 0);
  const std::optional<bool> iso = walk_balls(g, gv, h, hv, radius);
  if (!iso || slow_checks_enabled()) {
    const bool truth = balls_isomorphic(extract_ball(g, gv, radius),
                                        extract_ball(h, hv, radius));
    LDLB_ENSURE_MSG(!iso || *iso == truth,
                    "ball walk P1 (" << (*iso ? "iso" : "non-iso")
                                     << ") disagrees with ball extraction "
                                     << "at radius " << radius << ", nodes "
                                     << gv << "/" << hv);
    return truth;
  }
  return *iso;
}

}  // namespace ldlb
