// Undirected multigraphs with loops and edge colours (the EC-graphs of the
// paper, Section 3.3).
//
// Conventions follow the paper exactly (Section 3.5):
//   * an undirected loop on a node contributes +1 to its degree and appears
//     exactly once in the node's incidence list;
//   * parallel edges are allowed;
//   * edge colours are small non-negative integers; kUncoloured marks an
//     uncoloured edge. A colouring is "proper" when adjacent edges (sharing
//     an endpoint, a loop being adjacent to every edge at its node including
//     itself only once) have distinct colours.
//
// Nodes and edges are dense indices; removal is by rebuilding (graphs in this
// library are built once and then analysed).
//
// Storage is arena/SoA: the edge list is the single source of truth and the
// incidence structure is a flat CSR index (offset array + one contiguous id
// array) built lazily on first read. Construction paths therefore never pay
// per-node heap vectors, and analysis paths stream over contiguous memory.
// Mutation is single-threaded by convention (build once, then analyse);
// concurrent *reads* — the parallel simulator and validator — are safe, the
// index is published once via an atomic pointer.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "ldlb/util/error.hpp"

namespace ldlb {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;
using Color = std::int32_t;

inline constexpr Color kUncoloured = -1;
inline constexpr NodeId kNoNode = -1;
inline constexpr EdgeId kNoEdge = -1;

/// Read-only view of one node's slice of the CSR incidence index. Iterable
/// and indexable like the per-node vector it replaced; cheap to copy.
class IncidenceView {
 public:
  using value_type = EdgeId;
  using const_iterator = const EdgeId*;

  constexpr IncidenceView(const EdgeId* begin, const EdgeId* end)
      : begin_(begin), end_(end) {}

  [[nodiscard]] constexpr const EdgeId* begin() const { return begin_; }
  [[nodiscard]] constexpr const EdgeId* end() const { return end_; }
  [[nodiscard]] constexpr std::size_t size() const {
    return static_cast<std::size_t>(end_ - begin_);
  }
  [[nodiscard]] constexpr bool empty() const { return begin_ == end_; }
  constexpr EdgeId operator[](std::size_t i) const { return begin_[i]; }

 private:
  const EdgeId* begin_;
  const EdgeId* end_;
};

/// Undirected multigraph with loops and optional proper edge colouring.
class Multigraph {
 public:
  /// One undirected edge; `u == v` encodes a loop.
  struct Edge {
    NodeId u = kNoNode;
    NodeId v = kNoNode;
    Color color = kUncoloured;

    [[nodiscard]] bool is_loop() const { return u == v; }
  };

  Multigraph() = default;
  /// Graph with `n` isolated nodes.
  explicit Multigraph(NodeId n) { add_nodes(n); }

  Multigraph(const Multigraph& other)
      : edges_(other.edges_), node_count_(other.node_count_) {}
  Multigraph(Multigraph&& other) noexcept
      : edges_(std::move(other.edges_)), node_count_(other.node_count_) {
    adopt_index(other);
  }
  Multigraph& operator=(const Multigraph& other) {
    if (this != &other) {
      edges_ = other.edges_;
      node_count_ = other.node_count_;
      invalidate_index();
    }
    return *this;
  }
  Multigraph& operator=(Multigraph&& other) noexcept {
    if (this != &other) {
      edges_ = std::move(other.edges_);
      node_count_ = other.node_count_;
      invalidate_index();
      adopt_index(other);
    }
    return *this;
  }
  ~Multigraph() { invalidate_index(); }

  /// Adds one node, returning its id.
  NodeId add_node() {
    invalidate_index();
    return node_count_++;
  }

  /// Adds `count` nodes, returning the id of the first.
  NodeId add_nodes(NodeId count) {
    LDLB_REQUIRE(count >= 0);
    invalidate_index();
    NodeId first = node_count_;
    node_count_ += count;
    return first;
  }

  /// Adds an undirected edge {u, v} (loop when u == v), returning its id.
  EdgeId add_edge(NodeId u, NodeId v, Color color = kUncoloured);

  /// Pre-allocates edge storage: graphs in this library are built once by
  /// copy-with-rewrite loops (unfold, mix, lift, ball extraction) whose
  /// final edge count is known up front, so reserving kills the growth
  /// reallocations in those hot construction paths.
  void reserve_edges(EdgeId count) {
    LDLB_REQUIRE(count >= 0);
    edges_.reserve(static_cast<std::size_t>(count));
  }

  /// Node storage is a bare counter under the CSR layout; kept so the
  /// reserve-before-build idiom in construction paths stays uniform.
  void reserve_nodes(NodeId count) { LDLB_REQUIRE(count >= 0); }

  [[nodiscard]] NodeId node_count() const { return node_count_; }
  [[nodiscard]] EdgeId edge_count() const {
    return static_cast<EdgeId>(edges_.size());
  }

  [[nodiscard]] const Edge& edge(EdgeId e) const {
    LDLB_REQUIRE(e >= 0 && e < edge_count());
    return edges_[static_cast<std::size_t>(e)];
  }

  /// Incidence list of `v`: ids of incident edges; a loop appears once.
  /// The view points into the shared CSR index and stays valid until the
  /// graph is mutated, moved, or destroyed.
  [[nodiscard]] IncidenceView incident_edges(NodeId v) const {
    LDLB_REQUIRE(v >= 0 && v < node_count());
    const IncidenceIndex& idx = index();
    const auto i = static_cast<std::size_t>(v);
    return {idx.ids.data() + idx.offsets[i], idx.ids.data() + idx.offsets[i + 1]};
  }

  /// Degree under the EC convention (a loop counts once).
  [[nodiscard]] int degree(NodeId v) const {
    return static_cast<int>(incident_edges(v).size());
  }

  /// Maximum degree Δ (0 for the empty graph).
  [[nodiscard]] int max_degree() const;

  /// The endpoint of `e` other than `v`; for a loop returns `v` itself.
  /// Requires that `v` is an endpoint of `e`.
  [[nodiscard]] NodeId other_endpoint(EdgeId e, NodeId v) const;

  /// Distinct neighbour list of `v` (a loop makes `v` its own neighbour).
  [[nodiscard]] std::vector<NodeId> neighbors(NodeId v) const;

  /// Number of loops attached to `v`.
  [[nodiscard]] int loop_count(NodeId v) const;

  /// Re-colours an edge (incidence structure is unaffected).
  void set_color(EdgeId e, Color color) {
    LDLB_REQUIRE(e >= 0 && e < edge_count());
    edges_[static_cast<std::size_t>(e)].color = color;
  }

  /// True iff every edge carries a non-negative colour and adjacent edges
  /// have distinct colours (the EC-graph requirement). Scratch memory is
  /// O(nodes + edges) whatever the colour values.
  [[nodiscard]] bool has_proper_edge_coloring() const;

  /// Number of distinct colours used (0 when uncoloured edges exist).
  [[nodiscard]] int color_count() const;

  /// BFS distances from `v` (loops and parallels do not affect distance);
  /// unreachable nodes get -1.
  [[nodiscard]] std::vector<int> distances_from(NodeId v) const;

  /// True iff the graph is connected (the empty graph counts as connected).
  [[nodiscard]] bool is_connected() const;

  /// True iff the graph has no loops and no parallel edges.
  [[nodiscard]] bool is_simple() const;

  /// True iff removing all loops leaves a forest.
  [[nodiscard]] bool is_forest_ignoring_loops() const;

  /// The subgraph with edge `e` removed (nodes unchanged).
  [[nodiscard]] Multigraph without_edge(EdgeId e) const;

  /// Disjoint union; the nodes of `other` are appended after ours. Returns
  /// the offset that was added to `other`'s node ids.
  NodeId append_disjoint(const Multigraph& other);

  /// Human-readable dump (for examples and debugging).
  [[nodiscard]] std::string to_string() const;

 private:
  /// Flat CSR incidence: `ids[offsets[v] .. offsets[v+1])` are the edges at
  /// node v, in edge-id order (matching the append order of the old
  /// per-node vectors, which OI/ID end orderings rely on).
  struct IncidenceIndex {
    std::vector<std::int32_t> offsets;
    std::vector<EdgeId> ids;
  };

  [[nodiscard]] const IncidenceIndex& index() const {
    if (const IncidenceIndex* idx = index_.load(std::memory_order_acquire)) {
      return *idx;
    }
    return build_index();
  }
  const IncidenceIndex& build_index() const;
  void invalidate_index() {
    // Mutators run under exclusive access (concurrent readers during
    // mutation are already undefined), so a relaxed probe is enough to skip
    // the locked exchange — which otherwise dominates bulk construction,
    // where nothing is cached and add_edge calls this once per edge.
    if (index_.load(std::memory_order_relaxed) != nullptr) {
      delete index_.exchange(nullptr, std::memory_order_acq_rel);
    }
  }
  // Steals `other`'s built index (move construction/assignment): the views
  // handed out by `other` stay valid, now owned by us.
  void adopt_index(Multigraph& other) {
    index_.store(other.index_.exchange(nullptr, std::memory_order_acq_rel),
                 std::memory_order_release);
  }

  std::vector<Edge> edges_;
  NodeId node_count_ = 0;
  // Lazily built, atomically published so concurrent cold reads from the
  // parallel simulator/validator are race-free; mutators invalidate.
  //
  // ldlb-lint: allow(raw-sync): single-writer publication of an immutable
  // index — every thread that wins or loses the publish race reads the same
  // deterministic CSR content, so no result depends on scheduling.
  mutable std::atomic<const IncidenceIndex*> index_{nullptr};
};

std::ostream& operator<<(std::ostream& os, const Multigraph& g);

}  // namespace ldlb
