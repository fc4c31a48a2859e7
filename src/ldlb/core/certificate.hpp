// Machine-checkable lower-bound certificates (Theorem 1, Step 1).
//
// A run of the adversary against a concrete EC algorithm A produces, for
// each level i = 0, 1, ..., Δ-2, a pair of loopy EC-graphs (G_i, H_i) with
// witness nodes g_i, h_i and a witness colour c_i such that (property (P1)
// of Section 4.1):
//
//   * the radius-i neighbourhoods τ_i(G_i, g_i) and τ_i(H_i, h_i) are
//     isomorphic as rooted edge-coloured graphs, yet
//   * A assigns *different* weights to the colour-c_i loops at g_i and h_i.
//
// Each certified level i is direct evidence that A, viewed as a function of
// neighbourhoods (eq. (1)), is not i-local; a full chain up to level Δ-2
// certifies that A needs at least Δ-1 > Δ-2 rounds on graphs of maximum
// degree Δ — the linear-in-Δ lower bound.
//
// The validator below re-derives everything from scratch — it re-runs the
// algorithm on the stored graphs, re-checks the isomorphism of the two
// balls and the weight disagreement — and reads no state the adversary left
// behind, so a certificate cannot be "trusted into" validity by the
// adversary that built it.
#pragma once

#include <string>
#include <vector>

#include "ldlb/graph/multigraph.hpp"
#include "ldlb/local/algorithm.hpp"
#include "ldlb/util/rational.hpp"

namespace ldlb {

/// One level of the lower-bound chain.
struct CertificateLevel {
  int level = 0;          ///< i: the certified locality radius
  Multigraph g;           ///< G_i
  Multigraph h;           ///< H_i
  NodeId g_node = kNoNode;  ///< g_i
  NodeId h_node = kNoNode;  ///< h_i
  Color c = kUncoloured;    ///< c_i: colour of the witness loops
  EdgeId g_loop = kNoEdge;  ///< the colour-c loop at g_i in G_i
  EdgeId h_loop = kNoEdge;  ///< the colour-c loop at h_i in H_i
  Rational g_weight;        ///< A's weight on g_loop
  Rational h_weight;        ///< A's weight on h_loop (!= g_weight)
  int propagation_steps = 0;  ///< length of the Fact-3 walk that found this
};

/// A full certificate chain for one algorithm at one Δ.
struct LowerBoundCertificate {
  int delta = 0;                 ///< maximum degree of all graphs in the chain
  std::string algorithm_name;
  std::vector<CertificateLevel> levels;  ///< levels 0 .. Δ-2

  /// The largest certified level (Δ-2 for a complete chain); the algorithm
  /// provably needs more than this many rounds.
  [[nodiscard]] int certified_radius() const {
    return levels.empty() ? -1 : levels.back().level;
  }
};

/// Result of validating one level (all findings, for reporting).
struct LevelValidation {
  int level = 0;
  /// Both graphs have max degree <= Δ and are properly coloured with the
  /// colours 0..Δ-1.
  bool degree_ok = false;
  bool shape_ok = false;         ///< trees-with-loops (property (P3))
  /// (Δ-1-i)-loopy (property (P2)); false, without building a factor
  /// graph, when either graph is improperly coloured or disconnected.
  bool loopy_ok = false;
  bool witness_loops_ok = false; ///< stored loops exist, colour c, at g_i/h_i
  bool balls_isomorphic = false; ///< τ_i(G_i,g_i) ≅ τ_i(H_i,h_i)
  /// Re-run weights differ on the witness loops. The algorithm is re-run
  /// only on graphs properly coloured with the colours 0..Δ-1, so this and
  /// weights_match_stored are false when degree_ok fails on the colouring.
  bool outputs_differ = false;
  bool weights_match_stored = false;  ///< re-run weights equal stored ones

  [[nodiscard]] bool ok() const {
    return degree_ok && shape_ok && loopy_ok && witness_loops_ok &&
           balls_isomorphic && outputs_differ && weights_match_stored;
  }
};

/// Independently validates a certificate against the algorithm, re-running
/// it on every stored graph. `check_loopiness` adds (P2) through
/// is_k_loopy: a per-node loop count decides every level of an honest
/// chain, and only a graph whose count falls short builds a factor graph,
/// so full validation costs little more than validation without it
/// (docs/PERFORMANCE.md, "(P2) by loop count"). Without it the
/// certificate's loopiness claim goes unchecked.
std::vector<LevelValidation> validate_certificate(
    const LowerBoundCertificate& cert, EcAlgorithm& algorithm,
    bool check_loopiness = true);

/// Convenience: true iff every level validates.
bool certificate_is_valid(const LowerBoundCertificate& cert,
                          EcAlgorithm& algorithm, bool check_loopiness = true);

}  // namespace ldlb
