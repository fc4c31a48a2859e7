// Synchronous executor for anonymous (EC / PO) message-passing algorithms.
//
// Implements the LOCAL round structure of Section 1.4 on multigraphs
// directly: for an undirected loop the node's message on that end is
// delivered back to its own end next round; for a directed loop the message
// sent through the tail end arrives at the node's own head end and vice
// versa. Running on multigraphs this way is observationally equivalent to
// lifting to a simple cover first (eq. (2)); the test suite verifies this
// equivalence on constructed lifts.
//
// The executor also measures the quantities the paper's statements are
// about: the number of rounds until every node has halted, and the number
// of messages exchanged. Runs are *guarded*: every run carries a RunBudget
// (rounds, and optionally messages and wall-clock), and violations of the
// model's output contract surface as typed errors —
//
//   BudgetExceeded   the algorithm overran a budget
//   ModelViolation   an end had no announced weight, or the two ends of an
//                    edge announced different weights
//
// both deriving from ldlb::Error (util/error.hpp). Optional RunHooks
// (hooks.hpp) let a fault plan interfere with the run; optional
// RunDiagnostics collect per-round histograms and a halting profile even
// when the run dies mid-flight.
#pragma once

#include "ldlb/local/algorithm.hpp"
#include "ldlb/local/hooks.hpp"
#include "ldlb/matching/fractional_matching.hpp"
#include "ldlb/util/cancellation.hpp"

namespace ldlb {

/// Resource limits for one run. `max_rounds` is mandatory (the LOCAL lower
/// bounds are statements about rounds); the rest default to unlimited.
struct RunBudget {
  int max_rounds = 0;            ///< hard round limit (> 0)
  long long max_messages = 0;    ///< total delivered messages; <= 0: unlimited
  double max_wall_seconds = 0;   ///< wall-clock limit; <= 0: unlimited
};

/// Per-round traffic histogram entry.
struct RoundStats {
  long long messages = 0;   ///< messages delivered this round
  long long bytes = 0;      ///< payload bytes delivered this round
  int live_nodes = 0;       ///< nodes that were neither halted nor crashed
};

/// Structured trace of a run, filled incrementally so it survives a typed
/// throw (the guarded layer reports partial diagnostics for failed runs).
struct RunDiagnostics {
  std::vector<RoundStats> per_round;  ///< index r-1 holds round r
  std::vector<int> halt_round;   ///< per node: round after which it halted
                                 ///< (0 = before round 1, -1 = never)
  std::vector<int> crash_round;  ///< per node: round it crash-stopped, -1 if
                                 ///< it never crashed
  long long dropped_messages = 0;    ///< deliveries suppressed by hooks
  long long corrupted_messages = 0;  ///< payloads mutated in flight by hooks
  std::string first_violation;  ///< what() of the error that ended the run
                                ///< ("" for a clean run); set by guarded_run
  std::string supervision;  ///< rendered SupervisionLog when the run went
                            ///< through recover/Supervisor ("" otherwise)

  void reset(NodeId nodes);
};

/// How to execute a run: budgets, optional interference, optional tracing.
struct RunOptions {
  RunBudget budget;
  RunHooks* hooks = nullptr;             ///< not owned; may be null
  RunDiagnostics* diagnostics = nullptr;  ///< not owned; may be null
  /// Cooperative cancellation (not owned; may be null). The executor polls
  /// the token at every round boundary, every few nodes of a per-node pass
  /// and every few thousand message deliveries, and aborts the run by
  /// throwing Cancelled. Diagnostics collected up to that point stay valid.
  CancellationToken* cancel = nullptr;
};

/// Outcome of a simulated run.
struct RunResult {
  FractionalMatching matching;
  int rounds = 0;            ///< rounds until the last node halted
  long long messages = 0;    ///< total messages delivered
  long long message_bytes = 0;  ///< total payload bytes delivered — the
                                ///< LOCAL model does not bound this, but
                                ///< the benchmarks report what the
                                ///< algorithms actually use
};

/// Runs an EC algorithm on a properly edge-coloured multigraph. Throws
/// BudgetExceeded when a budget is overrun, ModelViolation when the output
/// contract is broken, ContractViolation when the graph is not properly
/// coloured.
RunResult run_ec(const Multigraph& g, EcAlgorithm& alg,
                 const RunOptions& options);

/// Runs a PO algorithm on a properly PO-coloured digraph.
RunResult run_po(const Digraph& g, PoAlgorithm& alg,
                 const RunOptions& options);

/// Round-budget-only conveniences (the dominant call shape in tests and
/// benchmarks).
RunResult run_ec(const Multigraph& g, EcAlgorithm& alg, int max_rounds);
RunResult run_po(const Digraph& g, PoAlgorithm& alg, int max_rounds);

}  // namespace ldlb
