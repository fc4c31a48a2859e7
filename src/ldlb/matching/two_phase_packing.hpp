// Two-phase colour-class packing: a genuinely *fractional* O(Δ)-round
// maximal FM algorithm in the EC model.
//
// SeqColorPacking's outputs happen to be integral on loop-free graphs
// (min of 0/1 residuals is 0/1). This variant produces the kind of
// fractional weights the paper's figures display (0.5, 0.25, ...):
//
//   sweep 1 (rounds 1..k):    colour-c edges take min(r_u, r_v) / 2;
//   sweep 2 (rounds k+1..2k): colour-c edges take min(r_u, r_v).
//
// Sweep 2 guarantees maximality exactly as in SeqColorPacking (after a
// colour class is processed with the full min, one endpoint is saturated
// forever); sweep 1 merely diversifies the weights. Runtime 2k = O(Δ).
// Used by the adversary benchmarks as a second subject with non-integral
// disagreement traces, and as an ablation partner for SeqColorPacking.
#pragma once

// ldlb-analyze: allow(layering): TwoPhasePacking is an EC-model algorithm;
// it implements the interface declared one layer up (see ROADMAP,
// model-interface inversion).
#include "ldlb/local/algorithm.hpp"

namespace ldlb {

/// EC-model maximal fractional matching in 2·num_colors rounds.
class TwoPhasePacking : public EcAlgorithm {
 public:
  explicit TwoPhasePacking(int num_colors);
  std::unique_ptr<EcNodeState> make_node(const EcNodeContext& ctx) override;
  [[nodiscard]] std::string name() const override { return "TwoPhasePacking"; }
  [[nodiscard]] bool parallel_safe() const override { return true; }

  // Both sweeps are fixed passes over the colour classes, so the run has a
  // closed form: SeqColorPacking's counting-sort sweep, twice, over exact
  // residuals, with sweep 1 taking half the min. Reproduces the
  // interpreter's weights and round/message/byte counters exactly.
  [[nodiscard]] std::optional<EcDirectRun> evaluate_direct(
      const Multigraph& g) const override;

 private:
  int num_colors_;
};

}  // namespace ldlb
