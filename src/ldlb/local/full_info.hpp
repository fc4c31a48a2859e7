// The full-information protocol: "gather your radius-t view, then decide".
//
// In the LOCAL model every t-round algorithm is equivalent to a view
// function (eq. (1) of the paper) because nodes can simply exchange and
// accumulate their neighbourhood views for t rounds — messages are
// unbounded. This module makes that equivalence executable for the EC
// model:
//
//   * EcView — the *anonymous* radius-r view of a node: a tree whose
//     children are indexed by end colour (unique per node thanks to the
//     proper colouring). This is exactly the truncated universal cover
//     seen from the node: a loop's message returns to its own end, so a
//     loop unrolls into a twin copy, matching eq. (2)'s semantics without
//     special cases.
//
//   * FullInfoEc — wraps any EcViewFunction as a message-passing
//     EcAlgorithm: in round r every node sends, through each end c, its
//     radius-(r-1) view minus the c-branch; the received views become its
//     radius-r children. After t rounds it applies the decision function.
//
// The cost of the equivalence is visible in the simulator's byte counter:
// view messages grow like Δ^r (see bench/full_info where the same outputs
// as SeqColorPacking are produced at exponentially higher bandwidth — the
// "unbounded message size" clause of Section 1.4, measured).
#pragma once

#include <map>
#include <string>

#include "ldlb/local/algorithm.hpp"

namespace ldlb {

/// Anonymous EC view tree (children per end colour).
struct EcView {
  std::map<Color, EcView> children;

  friend bool operator==(const EcView&, const EcView&) = default;

  /// Number of nodes in the view (including this one).
  [[nodiscard]] int size() const;

  /// Canonical text form, e.g. "(c0(c1())c2())".
  [[nodiscard]] std::string serialize() const;
  /// Inverse of serialize; throws on malformed input.
  static EcView parse(const std::string& text);
};

/// A t-time EC algorithm as a pure function of the gathered view.
class EcViewFunction {
 public:
  virtual ~EcViewFunction() = default;
  /// Gathering rounds needed (given the degree bound).
  [[nodiscard]] virtual int radius(int max_degree) const = 0;
  /// Weight per incident end colour. `incident` lists the node's own end
  /// colours (the view's root children may be fewer at radius 0).
  virtual std::map<Color, Rational> decide(
      const EcView& view, const std::vector<Color>& incident) = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// True when `decide` is a pure function (no mutable state), so runs of
  /// FullInfoEc over it may execute concurrently (EcAlgorithm::parallel_safe).
  [[nodiscard]] virtual bool parallel_safe() const { return false; }
};

/// Message-passing wrapper realising eq. (1): gather for t rounds, decide.
class FullInfoEc : public EcAlgorithm {
 public:
  explicit FullInfoEc(EcViewFunction& fn) : fn_(&fn) {}
  std::unique_ptr<EcNodeState> make_node(const EcNodeContext& ctx) override;
  [[nodiscard]] std::string name() const override {
    return "FullInfo(" + fn_->name() + ")";
  }
  // The wrapper is only as safe as the decision function it shares between
  // all gather nodes.
  [[nodiscard]] bool parallel_safe() const override {
    return fn_->parallel_safe();
  }

 private:
  EcViewFunction* fn_;
};

/// The colour-sweep packing as a view function: centrally replays the
/// SeqColorPacking schedule on the gathered view tree; by the locality cone
/// argument the root's weights after k colour rounds are exact given a
/// radius-k view. FullInfoEc(SweepViewFunction) is therefore output-
/// equivalent to SeqColorPacking — the eq. (1) equivalence, testable.
class SweepViewFunction : public EcViewFunction {
 public:
  explicit SweepViewFunction(int num_colors);
  [[nodiscard]] int radius(int max_degree) const override;
  std::map<Color, Rational> decide(
      const EcView& view, const std::vector<Color>& incident) override;
  [[nodiscard]] std::string name() const override { return "SweepView"; }
  // decide() replays the sweep on locals only; num_colors_ is immutable.
  [[nodiscard]] bool parallel_safe() const override { return true; }

 private:
  int num_colors_;
};

}  // namespace ldlb
