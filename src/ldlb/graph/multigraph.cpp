#include "ldlb/graph/multigraph.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>
#include <unordered_set>

namespace ldlb {

EdgeId Multigraph::add_edge(NodeId u, NodeId v, Color color) {
  LDLB_REQUIRE(u >= 0 && u < node_count());
  LDLB_REQUIRE(v >= 0 && v < node_count());
  invalidate_index();
  EdgeId e = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{u, v, color});
  return e;
}

const Multigraph::IncidenceIndex& Multigraph::build_index() const {
  // Counting sort of edge ends into one flat id array. Per-node order is
  // ascending edge id — identical to the append order of the former
  // per-node vectors, which OI/ID end orderings rely on.
  auto idx = std::make_unique<IncidenceIndex>();
  idx->offsets.assign(static_cast<std::size_t>(node_count_) + 1, 0);
  for (const Edge& e : edges_) {
    ++idx->offsets[static_cast<std::size_t>(e.u) + 1];
    if (!e.is_loop()) ++idx->offsets[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t v = 1; v < idx->offsets.size(); ++v) {
    idx->offsets[v] += idx->offsets[v - 1];
  }
  idx->ids.resize(static_cast<std::size_t>(idx->offsets.back()));
  std::vector<std::int32_t> cursor(idx->offsets.begin(),
                                   idx->offsets.end() - 1);
  for (EdgeId e = 0; e < edge_count(); ++e) {
    const Edge& ed = edges_[static_cast<std::size_t>(e)];
    idx->ids[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(ed.u)]++)] = e;
    if (!ed.is_loop()) {
      idx->ids[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(ed.v)]++)] = e;
    }
  }
  // First publisher wins; a concurrent builder of the identical index drops
  // its copy and reads the winner's.
  const IncidenceIndex* expected = nullptr;
  const IncidenceIndex* built = idx.release();
  if (index_.compare_exchange_strong(expected, built,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
    return *built;
  }
  delete built;
  return *expected;
}

int Multigraph::max_degree() const {
  if (node_count_ == 0) return 0;
  const IncidenceIndex& idx = index();
  std::int32_t d = 0;
  for (std::size_t v = 0; v < idx.offsets.size() - 1; ++v) {
    d = std::max(d, idx.offsets[v + 1] - idx.offsets[v]);
  }
  return static_cast<int>(d);
}

NodeId Multigraph::other_endpoint(EdgeId e, NodeId v) const {
  const Edge& ed = edge(e);
  LDLB_REQUIRE_MSG(ed.u == v || ed.v == v,
                   "node " << v << " is not an endpoint of edge " << e);
  if (ed.is_loop()) return v;
  return ed.u == v ? ed.v : ed.u;
}

std::vector<NodeId> Multigraph::neighbors(NodeId v) const {
  std::vector<NodeId> out;
  for (EdgeId e : incident_edges(v)) out.push_back(other_endpoint(e, v));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int Multigraph::loop_count(NodeId v) const {
  int n = 0;
  for (EdgeId e : incident_edges(v)) {
    if (edge(e).is_loop()) ++n;
  }
  return n;
}

bool Multigraph::has_proper_edge_coloring() const {
  Color max_color = 0;
  for (const Edge& e : edges_) {
    if (e.color < 0) return false;  // uncoloured, or not a colour at all
    max_color = std::max(max_color, e.color);
  }
  if (static_cast<std::size_t>(max_color) <
      static_cast<std::size_t>(node_count()) + edges_.size()) {
    // One stamp array over the colour range instead of a hash set per node:
    // this predicate guards every simulator run, so it must not allocate
    // per node. seen[c] holds the last node at which colour c appeared.
    std::vector<NodeId> seen(static_cast<std::size_t>(max_color) + 1, kNoNode);
    for (NodeId v = 0; v < node_count(); ++v) {
      for (EdgeId e : incident_edges(v)) {
        auto& slot = seen[static_cast<std::size_t>(
            edges_[static_cast<std::size_t>(e)].color)];
        if (slot == v) return false;
        slot = v;
      }
    }
    return true;
  }
  // Colour values beyond the graph's size would make that array as large as
  // the colour itself (8 GiB for 2^31 - 2), so sort each node's colours
  // instead.
  std::vector<Color> at;
  for (NodeId v = 0; v < node_count(); ++v) {
    at.clear();
    for (EdgeId e : incident_edges(v)) {
      at.push_back(edges_[static_cast<std::size_t>(e)].color);
    }
    std::sort(at.begin(), at.end());
    if (std::adjacent_find(at.begin(), at.end()) != at.end()) return false;
  }
  return true;
}

int Multigraph::color_count() const {
  std::set<Color> colors;
  for (const Edge& e : edges_) {
    if (e.color == kUncoloured) return 0;
    colors.insert(e.color);
  }
  return static_cast<int>(colors.size());
}

std::vector<int> Multigraph::distances_from(NodeId v) const {
  LDLB_REQUIRE(v >= 0 && v < node_count());
  std::vector<int> dist(static_cast<std::size_t>(node_count()), -1);
  // Monotone BFS frontier in a flat vector (each node enqueued once).
  std::vector<NodeId> queue;
  queue.reserve(static_cast<std::size_t>(node_count()));
  dist[static_cast<std::size_t>(v)] = 0;
  queue.push_back(v);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    NodeId cur = queue[head];
    for (EdgeId e : incident_edges(cur)) {
      NodeId next = other_endpoint(e, cur);
      if (dist[static_cast<std::size_t>(next)] < 0) {
        dist[static_cast<std::size_t>(next)] =
            dist[static_cast<std::size_t>(cur)] + 1;
        queue.push_back(next);
      }
    }
  }
  return dist;
}

bool Multigraph::is_connected() const {
  if (node_count() == 0) return true;
  auto dist = distances_from(0);
  return std::none_of(dist.begin(), dist.end(),
                      [](int d) { return d < 0; });
}

bool Multigraph::is_simple() const {
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const Edge& e : edges_) {
    if (e.is_loop()) return false;
    auto key = std::minmax(e.u, e.v);
    if (!seen.insert({key.first, key.second}).second) return false;
  }
  return true;
}

bool Multigraph::is_forest_ignoring_loops() const {
  // A forest has exactly (#nodes - #components) non-loop edges, and no
  // parallel non-loop edges / multi-edges creating cycles. Check via
  // union-find: every non-loop edge must join two distinct components.
  std::vector<NodeId> parent(static_cast<std::size_t>(node_count()));
  for (NodeId v = 0; v < node_count(); ++v) parent[static_cast<std::size_t>(v)] = v;
  auto find = [&](NodeId x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  for (const Edge& e : edges_) {
    if (e.is_loop()) continue;
    NodeId ru = find(e.u), rv = find(e.v);
    if (ru == rv) return false;
    parent[static_cast<std::size_t>(ru)] = rv;
  }
  return true;
}

Multigraph Multigraph::without_edge(EdgeId removed) const {
  LDLB_REQUIRE(removed >= 0 && removed < edge_count());
  Multigraph out;
  out.reserve_nodes(node_count());
  out.add_nodes(node_count());
  out.reserve_edges(edge_count() - 1);
  for (EdgeId e = 0; e < edge_count(); ++e) {
    if (e == removed) continue;
    const Edge& ed = edge(e);
    out.add_edge(ed.u, ed.v, ed.color);
  }
  return out;
}

NodeId Multigraph::append_disjoint(const Multigraph& other) {
  reserve_nodes(node_count() + other.node_count());
  reserve_edges(edge_count() + other.edge_count());
  NodeId offset = add_nodes(other.node_count());
  for (EdgeId e = 0; e < other.edge_count(); ++e) {
    const Edge& ed = other.edge(e);
    add_edge(ed.u + offset, ed.v + offset, ed.color);
  }
  return offset;
}

std::string Multigraph::to_string() const {
  std::ostringstream os;
  os << "Multigraph(n=" << node_count() << ", m=" << edge_count() << ")";
  for (EdgeId e = 0; e < edge_count(); ++e) {
    const Edge& ed = edge(e);
    os << "\n  e" << e << ": {" << ed.u << "," << ed.v << "}";
    if (ed.is_loop()) os << " (loop)";
    if (ed.color != kUncoloured) os << " colour " << ed.color;
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Multigraph& g) {
  return os << g.to_string();
}

}  // namespace ldlb
