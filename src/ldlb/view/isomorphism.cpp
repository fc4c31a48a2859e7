#include "ldlb/view/isomorphism.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <numeric>
#include <tuple>

#include "ldlb/cover/refinement.hpp"
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

// The two end tables P1 refines over G ⊔ H: G's nodes, then H's, then one
// sentinel node with no ends. On a properly coloured tree-with-loops the
// depth-r view of a node is its ball τ_r, and a loop at distance r is in
// τ_r while nothing past it is: exactly a flagged end into a node with no
// ends. `loops` holds each node's loops as flagged ends (colour | top bit)
// into the sentinel, so one round over it classes the nodes by their loop
// colours. `ends` holds each node's non-loop ends and, for a node with
// loops, one flagged end into the sentinel labelled with that loop class,
// so the `radius` rounds read a node's loops as one end, not one per loop.
struct P1Tables {
  P1Tables(const Multigraph& g, const Multigraph& h)
      : sentinel(g.node_count() + h.node_count()),
        ends(sentinel + 1, g.edge_count() + h.edge_count()),
        loops(sentinel + 1, (g.edge_count() + h.edge_count()) / 2 + 1),
        parent(static_cast<std::size_t>(sentinel)) {
    std::iota(parent.begin(), parent.end(), NodeId{0});
  }

  // Appends `g`'s nodes, ids shifted by `offset`. Returns false as soon as
  // `g` turns out not to be a properly coloured forest-with-loops: a
  // negative colour, a colour twice at one node, or a non-loop edge closing
  // a cycle (union-find over `parent`, each edge joined from its lower
  // endpoint).
  bool append_forest(const Multigraph& g, NodeId offset) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      for (EdgeId e : g.incident_edges(v)) {
        const Multigraph::Edge& ed = g.edge(e);
        if (ed.color < 0) return false;
        const auto colour = static_cast<std::uint32_t>(ed.color);
        if (ed.is_loop()) {
          loops.ends.push_back({kFlaggedEnd | colour, sentinel});
          continue;
        }
        const NodeId w = ed.u == v ? ed.v : ed.u;
        if (v < w) {
          const NodeId a = root(v + offset);
          const NodeId b = root(w + offset);
          if (a == b) return false;
          parent[static_cast<std::size_t>(a)] = b;
        }
        ends.ends.push_back({colour, w + offset});
      }
      loops.close_node();
      const End* loop = loops.ends.data() + loops.offset.end()[-2];
      const End* loop_end = loops.ends.data() + loops.ends.size();
      // The loop-class end sorts after every plain colour; finish() fills
      // in its label.
      if (loop != loop_end) ends.ends.push_back({kFlaggedEnd, sentinel});
      ends.close_node();
      const End* plain = ends.ends.data() + ends.offset.end()[-2];
      const End* plain_end =
          ends.ends.data() + ends.ends.size() - (loop != loop_end ? 1 : 0);
      // Both runs ascend: a repeat is two equal neighbours in one run or a
      // colour in both.
      auto same = [](const End& a, const End& b) { return a.label == b.label; };
      if (std::adjacent_find(plain, plain_end, same) != plain_end ||
          std::adjacent_find(loop, loop_end, same) != loop_end) {
        return false;
      }
      for (const End *p = plain, *l = loop; p != plain_end && l != loop_end;) {
        const std::uint32_t colour = l->label & ~kFlaggedEnd;
        if (p->label == colour) return false;
        if (p->label < colour) {
          ++p;
        } else {
          ++l;
        }
      }
    }
    return true;
  }

  // Closes the sentinel and labels each loop-class end with its node's
  // loop class.
  void finish() {
    ends.close_node();
    loops.close_node();
    const Refinement loop_class = refine(loops, 1);
    for (std::size_t v = 0; v < static_cast<std::size_t>(sentinel); ++v) {
      const std::int32_t last = ends.offset[v + 1] - 1;
      if (last < ends.offset[v]) continue;
      End& end = ends.ends[static_cast<std::size_t>(last)];
      if ((end.label & kFlaggedEnd) != 0) {
        end.label = kFlaggedEnd |
                    static_cast<std::uint32_t>(loop_class.class_of[v]);
      }
    }
  }

  NodeId root(NodeId x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      NodeId& up = parent[static_cast<std::size_t>(x)];
      up = parent[static_cast<std::size_t>(up)];
      x = up;
    }
    return x;
  }

  NodeId sentinel;
  EndTable ends;
  EndTable loops;
  std::vector<NodeId> parent;
};

}  // namespace

bool balls_isomorphic(const Multigraph& g, NodeId gv, const Multigraph& h,
                      NodeId hv, int radius) {
  LDLB_REQUIRE(gv >= 0 && gv < g.node_count());
  LDLB_REQUIRE(hv >= 0 && hv < h.node_count());
  LDLB_REQUIRE(radius >= 0);
  P1Tables tables(g, h);
  if (tables.append_forest(g, 0) && tables.append_forest(h, g.node_count())) {
    tables.finish();
    const Refinement r = refine(tables.ends, radius);
    const bool iso = r.class_of[static_cast<std::size_t>(gv)] ==
                     r.class_of[static_cast<std::size_t>(g.node_count() + hv)];
    if (slow_checks_enabled()) {
      const bool truth = balls_isomorphic(extract_ball(g, gv, radius),
                                          extract_ball(h, hv, radius));
      LDLB_ENSURE_MSG(truth == iso,
                      "refinement P1 (" << (iso ? "iso" : "non-iso")
                                        << ") disagrees with ball extraction "
                                        << "at radius " << radius
                                        << ", nodes " << gv << "/" << hv);
    }
    return iso;
  }
  return balls_isomorphic(extract_ball(g, gv, radius),
                          extract_ball(h, hv, radius));
}

}  // namespace ldlb
