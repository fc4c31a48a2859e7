// Property (P1), τ_i(G_i, g_i) ≅ τ_i(H_i, h_i), decided by the refinement
// kernel (cover/refinement.hpp) through balls_isomorphic(g, gv, h, hv, r).
//
//   * Boundary mutants change one edge of G_i at edge distance exactly i
//     from g_i (P1 must fail) or i + 1 (P1 must hold), on every level of
//     seq chains at Δ=8 and Δ=14; with (P2) on, the resident and streamed
//     validators must agree on every LevelValidation field, and a mutant
//     that disconnects G_i must fail (P3) and (P2) without throwing. They use only the
//     validators' public API, so they test whichever P1 engine exists.
//   * Differential: the kernel against ball extraction plus propagation
//     (the oracle) on chain witnesses at radius i, i+1 and i+2, random
//     node pairs at random radii, random loopy trees, and shapes that take
//     the extraction fallback.
//
// LDLB_SLOW_CHECKS=1 is exported before gtest spins up, so the library
// also re-derives every P1 call in this binary, including those inside
// run_adversary and the validators, through ball extraction.

#include <gtest/gtest.h>

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
#include "ldlb/cover/refinement.hpp"
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

// Builds the seq chain at `delta` and, for each distance (i, then i+1) and
// mutation (remove a loop, remove a non-loop edge, unfold a loop into an
// edge to a new leaf), one mutant certificate in which every level that
// has such an edge in G_i is mutated there. Checks P1, P3 and the degree
// bound on every level, and that the resident and streamed validators
// agree field for field, all with (P2) on. Returns how many levels each
// of the six mutants changed, distance-major.
std::vector<int> check_boundary_mutants(int delta) {
  SeqColorPacking alg{delta};
  const LowerBoundCertificate cert = run_adversary(alg, delta);
  std::vector<int> mutated_levels;
  for (int offset : {0, 1}) {
    for (Mutation m :
         {Mutation::kRemoveLoop, Mutation::kRemoveEdge, Mutation::kUnfoldLoop}) {
      const char* what = m == Mutation::kRemoveLoop   ? " remove loop"
                         : m == Mutation::kRemoveEdge ? " remove edge"
                                                      : " unfold loop";
      const std::string kind = "Δ=" + std::to_string(delta) + " distance i" +
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
  EXPECT_EQ(check_boundary_mutants(8),
            (std::vector<int>{6, 6, 6, 7, 0, 7}));
}

TEST(P1Boundary, SeqDelta14EveryLevel) {
  EXPECT_EQ(check_boundary_mutants(14),
            (std::vector<int>{12, 12, 12, 13, 0, 13}));
}

// ---------------------------------------------------------------------------
// Differential: kernel P1 against ball extraction + propagation.
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

// Compares the kernel with the oracle on one query and tallies the verdict.
void expect_agrees(const Multigraph& g, NodeId gv, const Multigraph& h,
                   NodeId hv, int radius, const std::string& at,
                   Verdicts& tally) {
  const bool truth = oracle(g, gv, h, hv, radius);
  EXPECT_EQ(balls_isomorphic(g, gv, h, hv, radius), truth)
      << at << ": nodes " << gv << "/" << hv << " radius " << radius;
  (truth ? tally.positives : tally.negatives)++;
}

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

// The witnesses of every level at radius i, i+1 and i+2, then `random_pairs`
// random node pairs (within G_i, within H_i, or across) at random radii in
// [0, i+2].
void differential_on_chain(const std::string& kind, int delta,
                           int random_pairs, Verdicts& tally) {
  Subject s = make_subject(kind, delta);
  AdversaryOptions opts;
  opts.max_rounds = 40000;
  const LowerBoundCertificate cert = run_adversary(*s.alg, delta, opts);
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

TEST(P1Differential, CyclesTakeTheExtractionFallback) {
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
  // A forest against a cycle: one non-forest side is enough to fall back.
  Rng rng{9};
  const Multigraph tree = make_loopy_tree(6, 3, rng);
  expect_agrees(tree, 0, cycle, 0, 2, "tree vs cycle", tally);
}

TEST(P1Differential, ImproperColouringsTakeTheExtractionFallback) {
  // Colour 0 twice at node 1 (plain), and colour 1 as both an edge and a
  // loop at node 0: neither is properly coloured, so propagation decides,
  // and it rejects improper balls outright.
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
// The kernel's round cap.
// ---------------------------------------------------------------------------

// A path 0 - 1 - ... - 7 whose edge (v, v+1) has colour v % 2: properly
// coloured, loopless, and symmetric under v -> 7 - v.
Multigraph alternating_path() {
  Multigraph g(8);
  for (NodeId v = 0; v + 1 < 8; ++v) g.add_edge(v, v + 1, v % 2);
  return g;
}

TEST(RefinementKernel, RoundCapBoundsTheViewDepth) {
  const Multigraph g = alternating_path();
  EndTable t(g.node_count(), g.edge_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (EdgeId e : g.incident_edges(v)) {
      t.ends.push_back({static_cast<std::uint32_t>(g.edge(e).color),
                        g.other_endpoint(e, v)});
    }
    t.close_node();
  }
  // No rounds: one class, led by node 0.
  const Refinement r0 = refine(t, 0);
  EXPECT_EQ(r0.first, std::vector<NodeId>{0});
  EXPECT_EQ(r0.class_of, std::vector<NodeId>(8, 0));
  // After d rounds two nodes share a class iff their radius-d balls agree.
  for (int d = 1; d <= 5; ++d) {
    const Refinement r = refine(t, d);
    for (NodeId u = 0; u < 8; ++u) {
      for (NodeId w = 0; w < 8; ++w) {
        EXPECT_EQ(r.class_of[static_cast<std::size_t>(u)] ==
                      r.class_of[static_cast<std::size_t>(w)],
                  oracle(g, u, g, w, d))
            << "rounds " << d << " nodes " << u << "/" << w;
      }
    }
  }
  // The fixpoint is the four mirror pairs, reached well before a generous
  // cap.
  const Refinement fix = refine(t, kToFixpoint);
  EXPECT_EQ(fix.first, (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(refine(t, 100).class_of, fix.class_of);
}

}  // namespace
}  // namespace ldlb
