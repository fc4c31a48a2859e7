// Property (P1), τ_i(G_i, g_i) ≅ τ_i(H_i, h_i), decided by the lockstep
// ball walk of balls_isomorphic(g, gv, h, hv, r) (view/isomorphism.hpp).
//
//   * Boundary mutants change one edge of G_i at edge distance exactly i
//     from g_i (P1 must fail) or i + 1 (P1 must hold), on every level of
//     seq chains at Δ=8 and Δ=14 and of two and po chains at Δ=8; with
//     (P2) on, the resident and streamed validators must agree on every
//     LevelValidation field, and a mutant that disconnects G_i must fail
//     (P3) and (P2) without throwing. They use only the validators' public
//     API, so they test whichever P1 engine exists.
//   * Differential: the walk against ball extraction plus propagation (the
//     oracle) on chain witnesses at radius i, i+1 and i+2, random node
//     pairs at random radii, random loopy trees, shapes that take the
//     extraction fallback, and hand-made balls that reach each control path
//     of the walk at its rim: cycles closing just outside and just inside
//     the ball, an improper rim, parallel edges, uncoloured edges and the
//     extreme colour values.
//
// LDLB_SLOW_CHECKS=1 is exported before gtest spins up, so the library
// also re-derives every P1 call in this binary, including those inside
// run_adversary and the validators, through ball extraction.

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ldlb/core/adversary.hpp"
#include "ldlb/core/certificate.hpp"
#include "ldlb/core/sim_ec_po.hpp"
#include "ldlb/graph/edge_coloring.hpp"
#include "ldlb/graph/generators.hpp"
#include "ldlb/matching/proposal_packing.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/matching/two_phase_packing.hpp"
#include "ldlb/recover/cert_log.hpp"
#include "ldlb/util/rng.hpp"
#include "ldlb/util/slow_checks.hpp"
#include "ldlb/view/ball.hpp"
#include "ldlb/view/isomorphism.hpp"

namespace ldlb {
namespace {

// The latch in util/slow_checks.hpp reads the environment once; set it
// before any static initialiser can reach it.
const bool g_slow_env = [] {
  ::setenv("LDLB_SLOW_CHECKS", "1", 1);
  return true;
}();

// ---------------------------------------------------------------------------
// Boundary mutants.
// ---------------------------------------------------------------------------

struct Subject {
  std::unique_ptr<PoAlgorithm> inner;
  std::unique_ptr<EcAlgorithm> alg;
};

Subject make_subject(const std::string& kind, int delta) {
  Subject s;
  if (kind == "seq") {
    s.alg = std::make_unique<SeqColorPacking>(delta);
  } else if (kind == "two") {
    s.alg = std::make_unique<TwoPhasePacking>(delta);
  } else {
    s.inner = std::make_unique<ProposalPacking>();
    s.alg = std::make_unique<EcFromPo>(*s.inner);
  }
  return s;
}

// Runs the adversary against `s` at `delta`.
LowerBoundCertificate run_subject(const Subject& s, int delta) {
  AdversaryOptions opts;
  opts.max_rounds = 40000;
  return run_adversary(*s.alg, delta, opts);
}

// Edge distance from `root` (view/ball.hpp): the nearer endpoint's distance
// plus 1, or -1 for an edge `root` cannot reach.
int edge_distance(const Multigraph& g, const std::vector<int>& dist,
                  EdgeId e) {
  const int du = dist[static_cast<std::size_t>(g.edge(e).u)];
  const int dv = dist[static_cast<std::size_t>(g.edge(e).v)];
  if (du < 0 || dv < 0) return -1;
  return std::min(du, dv) + 1;
}

// The first edge of `lv.g`, other than the witness loop, at edge distance
// `distance` from g_i that is a loop iff `loop`; kNoEdge when none exists.
EdgeId boundary_edge(const CertificateLevel& lv, int distance, bool loop) {
  const std::vector<int> dist = lv.g.distances_from(lv.g_node);
  for (EdgeId e = 0; e < lv.g.edge_count(); ++e) {
    if (e != lv.g_loop && lv.g.edge(e).is_loop() == loop &&
        edge_distance(lv.g, dist, e) == distance) {
      return e;
    }
  }
  return kNoEdge;
}

// `g` with loop `e` turned into an edge of the same colour to a new leaf;
// edge ids are unchanged.
Multigraph unfold_to_leaf(const Multigraph& g, EdgeId e) {
  Multigraph out(g.node_count() + 1);
  for (EdgeId j = 0; j < g.edge_count(); ++j) {
    const Multigraph::Edge& ed = g.edge(j);
    out.add_edge(ed.u, j == e ? g.node_count() : ed.v, ed.color);
  }
  return out;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

void expect_same_fields(const LevelValidation& a, const LevelValidation& b,
                        const std::string& at) {
  EXPECT_EQ(a.level, b.level) << at;
  EXPECT_EQ(a.degree_ok, b.degree_ok) << at;
  EXPECT_EQ(a.shape_ok, b.shape_ok) << at;
  EXPECT_EQ(a.loopy_ok, b.loopy_ok) << at;
  EXPECT_EQ(a.witness_loops_ok, b.witness_loops_ok) << at;
  EXPECT_EQ(a.balls_isomorphic, b.balls_isomorphic) << at;
  EXPECT_EQ(a.outputs_differ, b.outputs_differ) << at;
  EXPECT_EQ(a.weights_match_stored, b.weights_match_stored) << at;
}

enum class Mutation { kRemoveLoop, kRemoveEdge, kUnfoldLoop };

// Builds the chain of `subject` ("seq", "two" or "po") at `delta` and,
// for each distance (i, then i+1) and mutation (remove a loop, remove a
// non-loop edge, unfold a loop into an edge to a new leaf), one mutant
// certificate in which every level that has such an edge in G_i is mutated
// there. Checks P1, P3 and the degree bound on every level, and that the
// resident and streamed validators agree field for field, all with (P2)
// on. Returns how many levels each of the six mutants changed,
// distance-major.
std::vector<int> check_boundary_mutants(const std::string& subject,
                                        int delta) {
  const Subject s = make_subject(subject, delta);
  EcAlgorithm& alg = *s.alg;
  const LowerBoundCertificate cert = run_subject(s, delta);
  std::vector<int> mutated_levels;
  for (int offset : {0, 1}) {
    for (Mutation m :
         {Mutation::kRemoveLoop, Mutation::kRemoveEdge, Mutation::kUnfoldLoop}) {
      const char* what = m == Mutation::kRemoveLoop   ? " remove loop"
                         : m == Mutation::kRemoveEdge ? " remove edge"
                                                      : " unfold loop";
      const std::string kind = subject + " Δ=" + std::to_string(delta) +
                               " distance i" +
                               (offset == 0 ? "" : "+1") + what;
      LowerBoundCertificate mutant = cert;
      std::vector<bool> mutated(cert.levels.size(), false);
      for (std::size_t i = 0; i < mutant.levels.size(); ++i) {
        CertificateLevel& lv = mutant.levels[i];
        const EdgeId e = boundary_edge(lv, lv.level + offset,
                                       m != Mutation::kRemoveEdge);
        if (e == kNoEdge) continue;
        if (m == Mutation::kUnfoldLoop) {
          lv.g = unfold_to_leaf(lv.g, e);
        } else {
          lv.g = lv.g.without_edge(e);
          if (lv.g_loop > e) --lv.g_loop;
        }
        mutated[i] = true;
      }
      // Every mutant is validated with (P2) on, including those that
      // disconnect G_i: the validator reports them instead of throwing.
      const std::vector<LevelValidation> resident =
          validate_certificate(mutant, alg, /*check_loopiness=*/true);

      const std::string path = temp_path("p1_mutant.ldcl");
      {
        std::ofstream out{path, std::ios::binary | std::ios::trunc};
        out << CertificateLog::serialize(mutant);
        EXPECT_TRUE(out.good()) << kind;
      }
      std::vector<LevelValidation> streamed;
      const CertLogValidation log = validate_certificate_log(
          path, alg, /*check_loopiness=*/true,
          [&](const LevelValidation& v) { streamed.push_back(v); });
      std::filesystem::remove(path);
      EXPECT_EQ(log.levels_checked, static_cast<int>(mutant.levels.size()))
          << kind;
      EXPECT_EQ(streamed.size(), resident.size()) << kind;

      int count = 0;
      for (std::size_t i = 0; i < resident.size(); ++i) {
        const std::string at = kind + " level " + std::to_string(i);
        if (i < streamed.size()) {
          expect_same_fields(resident[i], streamed[i], at);
        }
        EXPECT_TRUE(resident[i].witness_loops_ok) << at;
        // τ_i holds the edges up to distance i: changing one there breaks
        // P1, changing one at distance i + 1 must not.
        const bool want_iso = !mutated[i] || offset == 1;
        EXPECT_EQ(resident[i].balls_isomorphic, want_iso) << at;
        // Removing a non-loop edge disconnects G_i: no factor graph exists,
        // so both (P3) and (P2) fail. Every other mutant keeps G_i
        // connected and properly coloured.
        const bool disconnected = mutated[i] && m == Mutation::kRemoveEdge;
        EXPECT_TRUE(resident[i].degree_ok) << at;
        EXPECT_EQ(resident[i].shape_ok, !disconnected) << at;
        if (disconnected) {
          EXPECT_FALSE(resident[i].loopy_ok) << at;
        }
        if (mutated[i]) ++count;
      }
      mutated_levels.push_back(count);
    }
  }
  return mutated_levels;
}

// Every level i >= 1 has loops and one non-loop edge at distance exactly i
// (level 0 has no edge at distance 0), and every level has loops at
// distance i + 1. No level has a non-loop edge at distance i + 1: each G_i
// ends i steps from g_i, in loops, so unfolding one of those loops is what
// puts a non-loop edge just past the boundary.
TEST(P1Boundary, SeqDelta8EveryLevel) {
  EXPECT_EQ(check_boundary_mutants("seq", 8),
            (std::vector<int>{6, 6, 6, 7, 0, 7}));
}

TEST(P1Boundary, SeqDelta14EveryLevel) {
  EXPECT_EQ(check_boundary_mutants("seq", 14),
            (std::vector<int>{12, 12, 12, 13, 0, 13}));
}

// The two and po chains have seq's edges at distance i and i + 1 on every
// level, so the same levels are mutated.
TEST(P1Boundary, TwoDelta8EveryLevel) {
  EXPECT_EQ(check_boundary_mutants("two", 8),
            (std::vector<int>{6, 6, 6, 7, 0, 7}));
}

TEST(P1Boundary, PoDelta8EveryLevel) {
  EXPECT_EQ(check_boundary_mutants("po", 8),
            (std::vector<int>{6, 6, 6, 7, 0, 7}));
}

// ---------------------------------------------------------------------------
// Differential: the walk's P1 against ball extraction + propagation.
// ---------------------------------------------------------------------------

bool oracle(const Multigraph& g, NodeId gv, const Multigraph& h, NodeId hv,
            int radius) {
  return balls_isomorphic(extract_ball(g, gv, radius),
                          extract_ball(h, hv, radius));
}

struct Verdicts {
  int positives = 0;
  int negatives = 0;
};

// Compares the walk with the oracle on one query and tallies the verdict.
void expect_agrees(const Multigraph& g, NodeId gv, const Multigraph& h,
                   NodeId hv, int radius, const std::string& at,
                   Verdicts& tally) {
  const bool truth = oracle(g, gv, h, hv, radius);
  EXPECT_EQ(balls_isomorphic(g, gv, h, hv, radius), truth)
      << at << ": nodes " << gv << "/" << hv << " radius " << radius;
  (truth ? tally.positives : tally.negatives)++;
}

// The witnesses of every level at radius i, i+1 and i+2, then `random_pairs`
// random node pairs (within G_i, within H_i, or across) at random radii in
// [0, i+2].
void differential_on_chain(const std::string& kind, int delta,
                           int random_pairs, Verdicts& tally) {
  const Subject s = make_subject(kind, delta);
  const LowerBoundCertificate cert = run_subject(s, delta);
  ASSERT_EQ(cert.certified_radius(), delta - 2) << kind << " Δ=" << delta;
  const std::string chain = kind + " Δ=" + std::to_string(delta);
  for (const CertificateLevel& lv : cert.levels) {
    const std::string at =
        chain + " witnesses, level " + std::to_string(lv.level);
    for (int r = lv.level; r <= lv.level + 2; ++r) {
      expect_agrees(lv.g, lv.g_node, lv.h, lv.h_node, r, at, tally);
    }
    // At radius i the witnesses are P1 itself.
    EXPECT_TRUE(oracle(lv.g, lv.g_node, lv.h, lv.h_node, lv.level)) << at;
  }
  Rng rng{static_cast<std::uint64_t>(delta) * 7919 + kind.size()};
  for (int trial = 0; trial < random_pairs; ++trial) {
    const CertificateLevel& lv = cert.levels[rng.next_below(cert.levels.size())];
    const auto which = rng.next_below(3);
    const Multigraph& a = which == 2 ? lv.h : lv.g;
    const Multigraph& b = which == 0 ? lv.g : lv.h;
    const auto u = static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(a.node_count())));
    const auto w = static_cast<NodeId>(
        rng.next_below(static_cast<std::uint64_t>(b.node_count())));
    const auto radius = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(lv.level) + 3));
    expect_agrees(a, u, b, w, radius, chain + " random pair", tally);
  }
}

TEST(P1Differential, SeqTwoPoChainsDelta3To11) {
  for (const char* kind : {"seq", "two", "po"}) {
    Verdicts tally;
    for (int delta = 3; delta <= 11; ++delta) {
      differential_on_chain(kind, delta, 200, tally);
    }
    // The random sweep must have exercised both verdicts per subject.
    EXPECT_GT(tally.positives, 0) << kind;
    EXPECT_GT(tally.negatives, 0) << kind;
  }
}

TEST(P1Differential, SeqChainDelta14) {
  Verdicts tally;
  differential_on_chain("seq", 14, 200, tally);
  EXPECT_GT(tally.positives, 0);
  EXPECT_GT(tally.negatives, 0);
}

TEST(P1Differential, SeqChainDelta16Witnesses) {
  Verdicts tally;
  differential_on_chain("seq", 16, 0, tally);
}

TEST(P1Differential, RandomLoopyTrees) {
  Rng rng{2026};
  Verdicts tally;
  for (int iter = 0; iter < 40; ++iter) {
    const auto n = static_cast<NodeId>(2 + rng.next_below(12));
    const int degree = static_cast<int>(3 + rng.next_below(6));
    const Multigraph g = make_loopy_tree(n, degree, rng);
    const Multigraph h = make_loopy_tree(n, degree, rng);
    ASSERT_TRUE(g.is_forest_ignoring_loops());
    ASSERT_TRUE(g.has_proper_edge_coloring());
    for (int radius = 0; radius <= 4; ++radius) {
      for (int trial = 0; trial < 3; ++trial) {
        const auto u = static_cast<NodeId>(
            rng.next_below(static_cast<std::uint64_t>(g.node_count())));
        const auto w = static_cast<NodeId>(
            rng.next_below(static_cast<std::uint64_t>(h.node_count())));
        expect_agrees(g, u, h, w, radius, "two trees", tally);
        expect_agrees(g, u, g, w, radius, "one tree", tally);
      }
    }
  }
  EXPECT_GT(tally.positives, 0);
  EXPECT_GT(tally.negatives, 0);
}

TEST(P1Differential, LoopAgainstLeafEdgeAtTheBoundary) {
  // A colour-0 loop at the root against a colour-0 edge to a leaf: both
  // balls are one root end at radius 1, yet only the loop is a loop.
  Multigraph loop(1);
  loop.add_edge(0, 0, 0);
  Multigraph edge(2);
  edge.add_edge(0, 1, 0);
  EXPECT_TRUE(balls_isomorphic(loop, 0, edge, 0, 0));
  EXPECT_FALSE(balls_isomorphic(loop, 0, edge, 0, 1));
  EXPECT_FALSE(oracle(loop, 0, edge, 0, 1));
  // A loop one step beyond the radius is invisible, one step inside is not.
  Multigraph far(2);
  far.add_edge(0, 1, 0);
  far.add_edge(1, 1, 1);
  EXPECT_TRUE(balls_isomorphic(far, 0, edge, 0, 1));
  EXPECT_FALSE(balls_isomorphic(far, 0, edge, 0, 2));
}

TEST(P1Differential, ForestsAreDecidedPerComponent) {
  // Disconnected hosts are still forests-with-loops: only the witness's
  // own component can reach its ball.
  Rng rng{5};
  const Multigraph tree = make_loopy_tree(6, 4, rng);
  Multigraph forest = tree;
  forest.append_disjoint(make_loopy_tree(5, 4, rng));
  ASSERT_FALSE(forest.is_connected());
  Verdicts tally;
  for (NodeId v = 0; v < tree.node_count(); ++v) {
    for (int radius = 0; radius <= 4; ++radius) {
      expect_agrees(forest, v, tree, v, radius, "forest", tally);
      EXPECT_TRUE(balls_isomorphic(forest, v, tree, v, radius));
    }
  }
}

TEST(P1Differential, CyclesAgreeWithExtraction) {
  // An odd cycle needs three colours, so its nodes are not all alike.
  const Multigraph cycle = greedy_edge_coloring(make_cycle(5));
  ASSERT_FALSE(cycle.is_forest_ignoring_loops());
  Verdicts tally;
  for (NodeId v = 0; v < cycle.node_count(); ++v) {
    for (int radius = 0; radius <= 4; ++radius) {
      expect_agrees(cycle, 0, cycle, v, radius, "cycle", tally);
    }
  }
  EXPECT_GT(tally.positives, 0);
  EXPECT_GT(tally.negatives, 0);
  // A forest against a cycle: the walk returns false at the first
  // mismatch, or falls back to extraction when it re-enters a node of the
  // cycle; either way it agrees with the oracle.
  Rng rng{9};
  const Multigraph tree = make_loopy_tree(6, 3, rng);
  expect_agrees(tree, 0, cycle, 0, 2, "tree vs cycle", tally);
}

TEST(P1Differential, ImproperColouringsAgreeWithExtraction) {
  // Colour 0 twice at node 1 (plain), and colour 1 as both an edge and a
  // loop at node 0: neither is properly coloured. The walk returns false
  // on the repeated colour once it expands that node, as extraction
  // rejects improper balls outright; at radius 0 both see the root alone.
  Multigraph twice(3);
  twice.add_edge(0, 1, 0);
  twice.add_edge(1, 2, 0);
  Multigraph mixed(2);
  mixed.add_edge(0, 1, 1);
  mixed.add_edge(0, 0, 1);
  ASSERT_FALSE(twice.has_proper_edge_coloring());
  ASSERT_FALSE(mixed.has_proper_edge_coloring());
  for (int radius = 0; radius <= 2; ++radius) {
    EXPECT_EQ(balls_isomorphic(twice, 1, twice, 1, radius),
              oracle(twice, 1, twice, 1, radius));
    EXPECT_EQ(balls_isomorphic(mixed, 0, mixed, 0, radius),
              oracle(mixed, 0, mixed, 0, radius));
  }
}

// ---------------------------------------------------------------------------
// The walk at the rim of the ball.
// ---------------------------------------------------------------------------

struct ColouredEdge {
  NodeId u;
  NodeId v;
  Color colour;
};

Multigraph graph_of(NodeId n, const std::vector<ColouredEdge>& edges) {
  Multigraph g(n);
  for (const ColouredEdge& e : edges) g.add_edge(e.u, e.v, e.colour);
  return g;
}

// The walk's verdicts on τ_radius(g, 0) ≅ τ_radius(h, 0) at radius r − 1, r
// and r + 1, each checked against extraction.
std::vector<bool> around(const Multigraph& g, const Multigraph& h, int r,
                         const std::string& at) {
  std::vector<bool> out;
  Verdicts tally;
  for (int radius = r - 1; radius <= r + 1; ++radius) {
    expect_agrees(g, 0, h, 0, radius, at, tally);
    out.push_back(balls_isomorphic(g, 0, h, 0, radius));
  }
  return out;
}

// Depth 0: node 0; depth 1: nodes 1, 2; depth 2: nodes 3, 4.
const std::vector<ColouredEdge> kTreeEdges = {
    {0, 1, 0}, {0, 2, 1}, {1, 3, 1}, {2, 4, 0}};

TEST(P1Walk, CycleClosingOutsideTheBallIsInvisible) {
  const Multigraph tree = graph_of(5, kTreeEdges);
  std::vector<ColouredEdge> edges = kTreeEdges;
  // Between the two depth-2 nodes: edge distance 3, outside τ_2.
  edges.push_back({3, 4, 2});
  const Multigraph closed = graph_of(5, edges);
  ASSERT_TRUE(closed.has_proper_edge_coloring());
  EXPECT_EQ(around(closed, tree, 2, "closes outside"),
            (std::vector<bool>{true, true, false}));
  EXPECT_EQ(around(closed, closed, 2, "closes outside, itself"),
            (std::vector<bool>{true, true, true}));
}

TEST(P1Walk, CycleClosingInsideTheBallIsSeen) {
  std::vector<ColouredEdge> edges = kTreeEdges;
  // Between depth 1 and depth 2: edge distance 2, inside τ_2.
  edges.push_back({1, 4, 2});
  const Multigraph closed = graph_of(5, edges);
  std::vector<ColouredEdge> leaf = kTreeEdges;
  leaf.push_back({1, 5, 2});
  const Multigraph tree = graph_of(6, leaf);
  ASSERT_TRUE(closed.has_proper_edge_coloring());
  EXPECT_EQ(around(closed, tree, 2, "closes inside"),
            (std::vector<bool>{true, false, false}));
  EXPECT_EQ(around(closed, closed, 2, "closes inside, itself"),
            (std::vector<bool>{true, true, true}));
}

TEST(P1Walk, ImproperOnlyAtTheRim) {
  // Depth-2 node 3 entered by colour 2 from both depth-1 nodes: τ_2 holds
  // both edges, so it is improper, and extraction rejects it even against
  // itself.
  const Multigraph rim =
      graph_of(4, {{0, 1, 0}, {0, 2, 1}, {1, 3, 2}, {2, 3, 2}});
  const Multigraph tree =
      graph_of(5, {{0, 1, 0}, {0, 2, 1}, {1, 3, 2}, {2, 4, 2}});
  EXPECT_EQ(around(rim, tree, 2, "improper rim"),
            (std::vector<bool>{true, false, false}));
  EXPECT_EQ(around(rim, rim, 2, "improper rim, itself"),
            (std::vector<bool>{true, false, false}));
  // The repeat one step further out is outside τ_2.
  const Multigraph beyond = graph_of(
      6, {{0, 1, 0}, {0, 2, 1}, {1, 3, 2}, {2, 4, 2}, {3, 5, 2}});
  EXPECT_EQ(around(beyond, tree, 2, "improper past the rim"),
            (std::vector<bool>{true, true, false}));
}

TEST(P1Walk, ParallelEdgesToTheParent) {
  // Node 1 hangs off the root by two parallel edges.
  const Multigraph twin = graph_of(3, {{0, 1, 0}, {0, 1, 1}, {1, 2, 2}});
  const Multigraph fork = graph_of(4, {{0, 1, 0}, {0, 3, 1}, {1, 2, 2}});
  EXPECT_EQ(around(twin, fork, 1, "parallel at the root"),
            (std::vector<bool>{true, false, false}));
  EXPECT_EQ(around(twin, twin, 1, "parallel at the root, itself"),
            (std::vector<bool>{true, true, true}));
  // Node 2 hangs off depth-1 node 1 by two parallel edges, both at edge
  // distance 2.
  const Multigraph deep = graph_of(3, {{0, 1, 0}, {1, 2, 1}, {1, 2, 2}});
  const Multigraph path = graph_of(4, {{0, 1, 0}, {1, 2, 1}, {1, 3, 2}});
  EXPECT_EQ(around(deep, path, 2, "parallel at depth 1"),
            (std::vector<bool>{true, false, false}));
  EXPECT_EQ(around(deep, deep, 2, "parallel at depth 1, itself"),
            (std::vector<bool>{true, true, true}));
}

TEST(P1Walk, UncolouredEdgeInsideAndJustOutside) {
  const Multigraph path = graph_of(3, {{0, 1, 0}, {1, 2, 1}});
  // Edge distance 2: outside τ_1, inside τ_2, where it makes the ball
  // improper.
  const Multigraph outer = graph_of(3, {{0, 1, 0}, {1, 2, kUncoloured}});
  EXPECT_EQ(around(outer, path, 1, "uncoloured at distance 2"),
            (std::vector<bool>{true, true, false}));
  // At the root: inside every ball of radius >= 1.
  const Multigraph inner = graph_of(2, {{0, 1, kUncoloured}});
  const Multigraph edge = graph_of(2, {{0, 1, 0}});
  EXPECT_EQ(around(inner, edge, 1, "uncoloured at the root"),
            (std::vector<bool>{true, false, false}));
  EXPECT_EQ(around(inner, inner, 1, "uncoloured at the root, itself"),
            (std::vector<bool>{true, false, false}));
}

TEST(P1Walk, HighDegreeNodesAreSortedWhole) {
  // 40 loops at the root, in descending colour order, and a path of two
  // colours: the walk must put all 42 ends in colour order.
  auto star = [](Color changed, bool ascending) {
    Multigraph g(3);
    for (Color c = 0; c < 40; ++c) {
      const Color colour = ascending ? c + 2 : 41 - c;
      g.add_edge(0, 0, colour == 20 ? changed : colour);
    }
    g.add_edge(0, 1, 0);
    g.add_edge(1, 2, 1);
    return g;
  };
  const Multigraph down = star(20, false);
  const Multigraph up = star(20, true);
  const Multigraph other = star(100, true);
  ASSERT_TRUE(down.has_proper_edge_coloring());
  EXPECT_EQ(around(down, up, 1, "40 loops, reordered"),
            (std::vector<bool>{true, true, true}));
  EXPECT_EQ(around(down, other, 1, "40 loops, one recoloured"),
            (std::vector<bool>{true, false, false}));
  // A repeated colour among them is improper.
  const Multigraph repeat = star(21, true);
  EXPECT_EQ(around(repeat, up, 1, "40 loops, one colour twice"),
            (std::vector<bool>{true, false, false}));
}

// Caps the address space at its current size plus `headroom` bytes, so an
// allocation sized by a colour value (8 GiB for 2^31 - 2) fails.
void cap_address_space(std::size_t headroom) {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  statm >> pages;
  rlimit limit{};
  limit.rlim_cur = pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE)) +
                   headroom;
  limit.rlim_max = limit.rlim_cur;
  setrlimit(RLIMIT_AS, &limit);
}

// Colours 0 and 2^31 - 2 on one path against the same path with 2^31 - 3,
// then against itself.
const std::vector<bool> kExtremeColourVerdicts = {true, true, false,
                                                  true, true, true};

std::vector<bool> extreme_colour_verdicts() {
  constexpr Color kTop = 2147483646;
  const Multigraph top = graph_of(3, {{0, 1, 0}, {1, 2, kTop}});
  const Multigraph below = graph_of(3, {{0, 1, 0}, {1, 2, kTop - 1}});
  std::vector<bool> out = around(top, below, 1, "extreme colours");
  for (const bool same : around(top, top, 1, "extreme colours, itself")) {
    out.push_back(same);
  }
  return out;
}

TEST(P1Walk, ExtremeColours) {
  EXPECT_EQ(extreme_colour_verdicts(), kExtremeColourVerdicts);
}

TEST(P1Walk, ExtremeColoursNeedNoColourSizedMemory) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        cap_address_space(std::size_t{256} << 20);
        std::exit(extreme_colour_verdicts() == kExtremeColourVerdicts ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace ldlb
