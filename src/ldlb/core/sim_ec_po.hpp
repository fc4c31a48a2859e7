// Simulation EC ⇐ PO (Section 5.1, Figure 8).
//
// A t-time PO algorithm yields a t-time EC algorithm: interpret each EC edge
// {u,v} of colour c as the two antiparallel arcs (u,v) and (v,u) of colour
// c, run the PO algorithm on this "doubled" digraph, and report the EC
// weight y(u,v) + y(v,u) for each edge. An undirected (half-)loop of colour
// c becomes a single *directed* loop of colour c — its one EC end turns into
// an out-end plus an in-end, consistent with the degree conventions of
// Section 3.5 — and its EC weight is twice the directed loop's weight.
//
// The simulation here is node-local and round-preserving: each EC node runs
// the PO node state machine for a node with out-colours = in-colours = its
// EC end colours, and every EC message carries the (out, in) message pair of
// the inner machine. Delivering an EC message across edge {u,v} hands u's
// out-half to v's in-end and u's in-half to v's out-end; on an EC loop the
// node's own pair comes back swapped — which is exactly the directed-loop
// semantics. Because the wrapper is itself an EcAlgorithm, the Section-4
// adversary can be run against any PO algorithm directly (see §5.5 of the
// paper, where the chain of simulations ends in exactly this position).
//
// That node-local simulation is the same run as the inner algorithm on the
// doubled digraph itself, so when the inner algorithm has a closed form the
// wrapper has one too (EcFromPo::evaluate_direct): evaluate on
// double_ec_graph(g), fold the weights back, and frame the inner sends into
// the EC messages the wrapper would have sent.
#pragma once

#include <utility>
#include <vector>

#include "ldlb/graph/digraph.hpp"
#include "ldlb/graph/multigraph.hpp"
#include "ldlb/local/algorithm.hpp"

namespace ldlb {

/// The §5.1 doubling: every EC edge {u,v} of colour c becomes arcs (u,v)
/// and (v,u) of colour c; an EC loop becomes a single directed loop. Arcs
/// are numbered in edge order; `arc_of_edge` records the mapping.
struct DoubledGraph {
  Digraph digraph;
  /// arc ids (first, second) per EC edge; second == kNoEdge for loops.
  std::vector<std::pair<EdgeId, EdgeId>> arc_of_edge;
};

DoubledGraph double_ec_graph(const Multigraph& g);

/// Wraps a PO algorithm as an EC algorithm per Section 5.1. The wrapped
/// algorithm must outlive the wrapper.
class EcFromPo : public EcAlgorithm {
 public:
  explicit EcFromPo(PoAlgorithm& inner) : inner_(&inner) {}

  std::unique_ptr<EcNodeState> make_node(const EcNodeContext& ctx) override;
  [[nodiscard]] std::string name() const override {
    return "EcFromPo(" + inner_->name() + ")";
  }

  /// Closed form whenever the inner algorithm has one: runs the inner
  /// PoAlgorithm::evaluate_direct on double_ec_graph(g), folds the arc
  /// weights back as y(u,v) + y(v,u) (twice a directed loop's weight), and
  /// frames the reported sends exactly as Node::send would: one EC message
  /// per (round, node, colour) with a send on either half, of size
  /// encode_message_pair(out, in). Declines when the inner one does.
  [[nodiscard]] std::optional<EcDirectRun> evaluate_direct(
      const Multigraph& g) const override;

 private:
  PoAlgorithm* inner_;
};

/// Message-pair codec used by the simulation (exposed for tests).
Message encode_message_pair(const Message* out_part, const Message* in_part);
/// Decodes into (has_out, out, has_in, in).
struct MessagePair {
  bool has_out = false;
  Message out;
  bool has_in = false;
  Message in;
};
MessagePair decode_message_pair(const Message& packed);

}  // namespace ldlb
