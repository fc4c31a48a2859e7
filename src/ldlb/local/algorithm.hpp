// Algorithm interfaces for the LOCAL model and its weaker variants
// (Sections 1.4 and 2.1 of the paper).
//
// Two complementary styles are supported, matching the two views the paper
// itself uses:
//
//   * *Message passing* (Section 1.4): a node is a state machine; in every
//     synchronous round it sends one message per incident edge-end, receives
//     one message per end, and updates its state; eventually it halts and
//     announces the weights of its incident ends. Anonymous algorithms (EC,
//     PO) are written in this style — a node sees only the colours of its
//     ends, so lift-invariance (eq. (2)) holds by construction.
//
//   * *View functions* (eq. (1)): A(G, v) = A(τ_t(G, v)) — the algorithm is
//     a function of the radius-t ball. ID and OI algorithms are written in
//     this style (a t-round LOCAL algorithm can always gather its ball and
//     decide); the OI adapter in view_runner.hpp hides identifier values and
//     exposes only their relative order.
//
// Messages are byte strings: the LOCAL model does not bound message size,
// and opaque bytes keep node state machines honest (no sharing of pointers
// into global state).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ldlb/graph/digraph.hpp"
#include "ldlb/graph/multigraph.hpp"
#include "ldlb/util/rational.hpp"

namespace ldlb {

using Message = std::string;

// ---------------------------------------------------------------------------
// EC model: anonymous nodes, proper edge colouring. A node addresses its
// incident edge-ends by colour; a loop is a single end whose messages come
// back to the node itself.
// ---------------------------------------------------------------------------

/// Everything an EC node knows at wake-up: the colours of its incident ends
/// (sorted, distinct by properness) and the maximum degree bound.
struct EcNodeContext {
  std::vector<Color> incident_colors;
  int max_degree = 0;
};

/// Per-node state machine in the EC model.
class EcNodeState {
 public:
  virtual ~EcNodeState() = default;

  /// Messages to send this round, keyed by end colour. Rounds count from 1.
  /// Keys must be a subset of the node's incident colours.
  virtual std::map<Color, Message> send(int round) = 0;

  /// Delivery of this round's messages, keyed by end colour. An end whose
  /// peer sent nothing is absent from the map.
  virtual void receive(int round, const std::map<Color, Message>& inbox) = 0;

  /// True once the node has stopped; its output is then final and it sends
  /// no further messages.
  [[nodiscard]] virtual bool halted() const = 0;

  /// Local output: the weight of each incident end, keyed by colour. Must
  /// cover every incident colour once the node has halted.
  [[nodiscard]] virtual std::map<Color, Rational> output() const = 0;
};

/// Outcome of a closed-form whole-graph evaluation (see
/// EcAlgorithm::evaluate_direct): the exact weights and counters the
/// message-passing interpreter would have produced.
struct EcDirectRun {
  std::vector<Rational> edge_weights;  ///< indexed by EdgeId
  int rounds = 0;                      ///< rounds until the last node halted
  long long messages = 0;              ///< total messages delivered
  long long message_bytes = 0;         ///< total payload bytes delivered
};

/// Factory for EC node state machines.
class EcAlgorithm {
 public:
  virtual ~EcAlgorithm() = default;
  virtual std::unique_ptr<EcNodeState> make_node(const EcNodeContext& ctx) = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// True when several runs of this algorithm may execute at once on
  /// different threads (the factory keeps no mutable state and each node
  /// touches only its own state). Opt-in: validate_certificate re-runs the
  /// levels of a chain concurrently only for such an algorithm, so stateful
  /// factories — test impostors that deliberately break anonymity among
  /// them — stay on the serial loop, race-free and with identical verdicts.
  /// Every simulated run itself executes on the calling thread.
  [[nodiscard]] virtual bool parallel_safe() const { return false; }

  /// Optional closed-form evaluator. An algorithm whose outcome on `g` has a
  /// direct formulation may return the *exact* result the round-by-round
  /// interpreter would produce — same weights, same round/message/byte
  /// counters, byte for byte — skipping per-node state machines and message
  /// materialisation entirely. Return nullopt to decline (the simulator then
  /// interprets as usual); decline in particular whenever interpretation
  /// would fail, so errors keep surfacing from the real execution path. The
  /// simulator only consults this on unobserved runs (no hooks, no
  /// diagnostics, no message/wall budgets) and enforces the round budget on
  /// the returned count itself. An evaluation is not interruptible; the
  /// simulator polls the run's cancellation token before and after it.
  /// Under `slow_checks_enabled()` it re-runs the interpreter after every
  /// evaluation and requires all four fields to match, so an evaluator that
  /// drifts from its state machine fails loudly.
  [[nodiscard]] virtual std::optional<EcDirectRun> evaluate_direct(
      const Multigraph& g) const {
    (void)g;
    return std::nullopt;
  }
};

// ---------------------------------------------------------------------------
// PO model: anonymous nodes; arcs carry colours and orientations. A node
// addresses its ends by (direction, colour); a directed loop gives the node
// both an outgoing end and an incoming end of the same colour.
// ---------------------------------------------------------------------------

/// One arc-end as seen from a node.
struct PoEnd {
  bool outgoing = true;
  Color color = kUncoloured;
  auto operator<=>(const PoEnd&) const = default;
};

/// Everything a PO node knows at wake-up.
struct PoNodeContext {
  std::vector<Color> out_colors;
  std::vector<Color> in_colors;
  int max_degree = 0;
};

/// Per-node state machine in the PO model.
class PoNodeState {
 public:
  virtual ~PoNodeState() = default;
  virtual std::map<PoEnd, Message> send(int round) = 0;
  virtual void receive(int round, const std::map<PoEnd, Message>& inbox) = 0;
  [[nodiscard]] virtual bool halted() const = 0;
  /// Weight of each incident end. The two ends of an arc must agree (the
  /// simulator enforces this); a directed loop's two ends both report the
  /// loop's weight.
  [[nodiscard]] virtual std::map<PoEnd, Rational> output() const = 0;
};

/// One message of a closed-form PO run (see PoAlgorithm::evaluate_direct):
/// in round `round`, `node` sent `bytes` payload bytes through its end `end`
/// of arc `arc`.
struct PoSend {
  int round = 0;
  NodeId node = kNoNode;
  PoEnd end;
  EdgeId arc = kNoEdge;
  std::size_t bytes = 0;
};

/// Receives every PoSend of a closed-form PO run, in nondecreasing round
/// order.
using PoSendObserver = std::function<void(const PoSend&)>;

/// Outcome of a closed-form PO run: the interpreter's weights and round
/// count. Its traffic is reported send by send instead of summed, because a
/// simulation that wraps the PO algorithm (EcFromPo) frames several sends
/// into one message of its own.
struct PoDirectRun {
  std::vector<Rational> arc_weights;  ///< indexed by arc id
  int rounds = 0;                     ///< rounds until the last node halted
};

/// Factory for PO node state machines.
class PoAlgorithm {
 public:
  virtual ~PoAlgorithm() = default;
  virtual std::unique_ptr<PoNodeState> make_node(const PoNodeContext& ctx) = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// PO form of EcAlgorithm::evaluate_direct, with the same contract: on a
  /// properly PO-coloured `g`, either decline (nullopt) or return exactly the
  /// weights and round count run_po would produce, and call `on_send` once
  /// for every message run_po would deliver, in round order. Summing the
  /// reported sends gives run_po's messages and message_bytes. run_po itself
  /// always interprets; the seam serves simulations that run a PO algorithm
  /// inside an EC run (EcFromPo::evaluate_direct), whose own unobserved-run
  /// rules then apply.
  [[nodiscard]] virtual std::optional<PoDirectRun> evaluate_direct(
      const Digraph& g, const PoSendObserver& on_send) const {
    (void)g;
    (void)on_send;
    return std::nullopt;
  }
};

// ---------------------------------------------------------------------------
// OI model: view functions over ordered balls (Section 2.1). The interface
// lives here with the other model interfaces; the simulations that *consume*
// it (PO ⇐ OI of Section 5.3, OI ⇐ ID of Section 5.4) live in core/.
// ---------------------------------------------------------------------------

/// A t-time order-invariant view algorithm: a pure function of the rooted
/// radius-t ball and the relative order of its nodes.
class OiViewAlgorithm {
 public:
  virtual ~OiViewAlgorithm() = default;

  /// Radius t(Δ) of the views the algorithm needs.
  [[nodiscard]] virtual int radius(int max_degree) const = 0;

  /// Computes the weights of the edges incident to `root`, indexed in
  /// `ball.incident_edges(root)` order. `ranks[i]` is the position of ball
  /// node i in the linear order (all distinct).
  virtual std::vector<Rational> run(const Multigraph& ball, NodeId root,
                                    const std::vector<int>& ranks) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace ldlb
