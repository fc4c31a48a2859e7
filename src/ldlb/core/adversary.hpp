// The unfold-and-mix adversary (Section 4 of the paper) — Step 1 of the
// lower-bound proof, as an executable construction.
//
// Given any correct maximal-FM algorithm A in the EC model (a black box
// behind the EcAlgorithm interface), the adversary builds the inductive
// chain of graph pairs (G_i, H_i), i = 0..Δ-2, of Section 4:
//
//   base case   G_0 = one node with Δ coloured loops, H_0 = G_0 − e
//               (base_case.hpp);
//   step        unfold the witness loop e of G_i into the 2-lift GG, mix
//               G_i − e with H_i − f into GH, compare A's weight on the new
//               colour-c edge with its weights on e and f, and propagate the
//               resulting disagreement (Fact 3) through the common part
//               until it rests on a loop e* — the next witness.
//
// Every level is recorded in a LowerBoundCertificate; the level-i pair has
// isomorphic radius-i neighbourhoods around its witnesses yet different
// outputs there, certifying that A is not i-local. A complete chain reaches
// level Δ-2: A needs Ω(Δ) rounds.
//
// The adversary relies on A's lift-invariance (eq. (2)) — the defining
// property of an anonymous algorithm — and *checks* it along the way: after
// unfolding, the two copies of every edge must receive equal weights, and
// the unfolded edge must keep the original loop's weight. A non-anonymous
// impostor is rejected with a diagnostic rather than silently producing a
// bogus certificate.
#pragma once

#include <functional>
#include <string>

#include "ldlb/core/certificate.hpp"
#include "ldlb/cover/lift.hpp"
#include "ldlb/local/algorithm.hpp"
#include "ldlb/matching/fractional_matching.hpp"

namespace ldlb {

class RunHooks;
class CancellationToken;
struct RunDiagnostics;

/// Tuning knobs for the adversary run.
struct AdversaryOptions {
  /// Upper bound on simulated rounds per run (guards non-terminating
  /// algorithms); 0 means "use 16·(Δ+2)²".
  int max_rounds = 0;
  /// Optional observation hooks (local/hooks.hpp) installed on every
  /// simulated run an adversary step performs; not owned. Interfering hooks
  /// (fault plans) will generally break the construction — the intended use
  /// is passive instrumentation of long runs.
  RunHooks* hooks = nullptr;
  /// Cooperative cancellation (not owned; may be null): polled between
  /// levels, between phases of a step, and — through RunOptions — inside
  /// every simulated run, so a cancel lands within one chunk of simulator
  /// work even on large instances.
  CancellationToken* cancel = nullptr;
  /// When set, receives the diagnostics of simulated runs (not owned).
  /// Every run of the chain executes on the calling thread and writes
  /// straight into it, so it holds the last run's trace — after a failure,
  /// the failing run's partial trace.
  RunDiagnostics* diagnostics = nullptr;
  /// Re-check property (P1) — ball isomorphism + output difference — as
  /// each level is built: one lockstep walk over the two balls, linear in
  /// their size (also rechecked by the validator).
  bool verify_p1 = true;
  /// Re-check property (P2) — (Δ-1-i)-loopiness — as each level is built,
  /// through is_k_loopy: a per-node loop count that decides every level
  /// of the adversary's own chains without a factor graph. Off by default
  /// because the validator checks (P2) independently.
  bool verify_p2 = false;
};

/// Runs the full adversary against `algorithm` at maximum degree `delta`,
/// producing the chain of levels 0..delta-2.
LowerBoundCertificate run_adversary(EcAlgorithm& algorithm, int delta,
                                    const AdversaryOptions& options = {});

/// One inductive step (Section 4.3): from a valid level-i pair to a level-
/// (i+1) pair. Exposed separately so benchmarks can measure per-level cost.
CertificateLevel adversary_step(EcAlgorithm& algorithm, int delta,
                                const CertificateLevel& prev,
                                const AdversaryOptions& options = {});

// ---------------------------------------------------------------------------
// Shardable step API. One inductive step decomposes into (a) pure graph
// construction — the mix GH and the two unfoldings GG, HH — and (b) two
// simulations of the algorithm: on GH, then on the unfolding GH's mix
// weight selects, and (c) a deterministic combine that compares weights,
// propagates the disagreement and emits the next level. The fleet engine
// (fault/fleet.hpp) ships the graphs of (b) to worker processes and feeds
// the returned matchings into (c); adversary_step is a thin wrapper over the
// same plan/combine pair, so every execution mode shares one construction.
// ---------------------------------------------------------------------------

/// The step's simulation inputs — the mix and both unfoldings, of which the
/// combine asks for one — plus the bookkeeping the combine needs to
/// interpret their edge ids.
struct AdversaryStepPlan {
  Multigraph gh;  ///< the mix of G − e and H − f joined by a colour-c edge
  TwoLift gg;     ///< unfolding of G's witness loop
  TwoLift hh;     ///< unfolding of H's witness loop
  EdgeId g_surviving = 0;  ///< edges of G − e (prefix of gh's edge ids)
  EdgeId h_surviving = 0;  ///< edges of H − f
  EdgeId mix_edge = 0;     ///< the joining edge (last edge of gh)
};

/// Builds the mix and both unfoldings for the step prev → prev.level + 1.
/// Pure graph work — no simulation, no randomness; safe to call in any
/// process and byte-deterministic in its edge orderings.
AdversaryStepPlan plan_adversary_step(const CertificateLevel& prev);

/// Supplies the matching of the branch the decision selected: called with
/// `want_gg` true for the GG branch, false for HH — at most once. Runs the
/// selected unfolding in process (adversary_step) or returns a worker's
/// reply (fleet); it surfaces that branch's failure by throwing.
using BranchFetch = std::function<FractionalMatching(bool want_gg)>;

/// Deterministic second half of the step: decides the case from y_gh's
/// weight on the mix edge, checks lift-invariance of the selected
/// unfolding, propagates the disagreement (Fact 3) and assembles the next
/// level (verifying (P1)/(P2) per `options`). Consumes the plan's graphs.
/// `algorithm_name` only labels lift-invariance diagnostics.
CertificateLevel combine_adversary_step(int delta,
                                        const CertificateLevel& prev,
                                        AdversaryStepPlan&& plan,
                                        FractionalMatching y_gh,
                                        const BranchFetch& fetch,
                                        const std::string& algorithm_name,
                                        const AdversaryOptions& options = {});

/// The round budget an adversary run at `delta` grants each simulation:
/// options.max_rounds, or the 16·(Δ+2)² default. Exposed so out-of-process
/// executors budget their runs identically to in-process ones.
int adversary_round_budget(int delta, const AdversaryOptions& options);

}  // namespace ldlb
