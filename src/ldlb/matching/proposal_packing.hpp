// Proposal-based maximal fractional matching in the PO model.
//
// The anonymous offer/grant algorithm that stands in for the PO-model
// O(Δ)-round maximal edge packing of Åstrand–Suomela [3] (substitution
// documented in DESIGN.md §2). Unlike the EC model, the PO model has no
// edge colouring to serialise on, and deterministic anonymous symmetry
// breaking is impossible on directed cycles — but *fractional* matchings do
// not need symmetry breaking (a cycle can put 1/2 everywhere), which is what
// the algorithm exploits.
//
// Protocol (one round per phase):
//   * every unsaturated node offers r/d through each of its d open ends,
//     where r is its residual 1 − y[v];
//   * an edge whose two ends both carried offers gains min of the offers;
//   * a node that became saturated announces SAT through its open ends in
//     the next round; an end closes when SAT was sent or received through
//     it; a node halts when all its ends are closed.
//
// Correctness: weights only grow, each node grants at most its residual per
// phase (feasibility), and an end only closes when one side is saturated
// (maximality at termination). Termination: while any edge has two
// unsaturated endpoints, the globally minimal offer is granted in full on
// every open end of its node, so that node saturates once its stale SAT
// peers have closed — giving a safe O(n + m) round bound. Empirically the
// round count grows like Θ(Δ) on bounded-degree families (see
// bench/fig8_ec_po and bench/thm1_linear_in_delta), matching the behaviour
// the paper attributes to [3].
//
// On a directed loop (two ends at the same node) the node's two offers meet
// each other, the loop gains r/d, and both ends — counted separately in the
// PO degree convention — report the same weight; lift-invariance holds by
// construction because the node cannot even distinguish a loop from a pair
// of same-coloured arcs to twins.
#pragma once

// ldlb-analyze: allow(layering): ProposalPacking is a PO-model algorithm;
// it implements the interface declared one layer up (see ROADMAP,
// model-interface inversion).
#include "ldlb/local/algorithm.hpp"

namespace ldlb {

/// PO-model anonymous maximal fractional matching.
class ProposalPacking : public PoAlgorithm {
 public:
  ProposalPacking() = default;
  std::unique_ptr<PoNodeState> make_node(const PoNodeContext& ctx) override;
  [[nodiscard]] std::string name() const override { return "ProposalPacking"; }

  // The protocol is a fixed offer/grant/SAT exchange over paired arc ends,
  // so the run has a closed form: one flat loop per round over the open
  // arcs, on exact residuals. Reproduces the interpreter's weights, rounds
  // and every send exactly; declines past
  // proposal_packing_round_budget(n, m), which the protocol never needs.
  [[nodiscard]] std::optional<PoDirectRun> evaluate_direct(
      const Digraph& g, const PoSendObserver& on_send) const override;
};

/// A safe round budget for running ProposalPacking on a graph with n nodes
/// and m arcs.
inline int proposal_packing_round_budget(NodeId n, EdgeId m) {
  return 2 * (static_cast<int>(n) + static_cast<int>(m)) + 8;
}

}  // namespace ldlb
