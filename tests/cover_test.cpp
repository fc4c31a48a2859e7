// Tests for covering maps, lifts, universal covers, factor graphs, and
// loopiness (Sections 3.4–3.5, Figure 3, Definition 1).
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "ldlb/core/adversary.hpp"
#include "ldlb/core/sim_ec_po.hpp"
#include "ldlb/cover/covering_map.hpp"
#include "ldlb/cover/factor_graph.hpp"
#include "ldlb/cover/lift.hpp"
#include "ldlb/cover/loopiness.hpp"
#include "ldlb/cover/universal_cover.hpp"
#include "ldlb/graph/edge_coloring.hpp"
#include "ldlb/graph/generators.hpp"
#include "ldlb/graph/graph_io.hpp"
#include "ldlb/matching/proposal_packing.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/matching/two_phase_packing.hpp"
#include "ldlb/util/alloc_guard.hpp"
#include "ldlb/util/rng.hpp"
#include "ldlb/util/slow_checks.hpp"

namespace ldlb {
namespace {

TEST(CoveringMap, IdentityIsCovering) {
  Multigraph g = greedy_edge_coloring(make_cycle(5));
  std::vector<NodeId> id(5);
  for (NodeId v = 0; v < 5; ++v) id[static_cast<std::size_t>(v)] = v;
  EXPECT_TRUE(is_covering_map(g, g, id));
}

TEST(CoveringMap, K2CoversTheSingleLoopNode) {
  // The canonical half-loop example: K2 (one colour-c edge) covers a single
  // node with a colour-c loop; the loop counts once in the degree.
  Multigraph loop = make_loop_star(1);
  Multigraph k2(2);
  k2.add_edge(0, 1, 0);
  EXPECT_TRUE(is_covering_map(k2, loop, {0, 0}));
}

TEST(CoveringMap, RejectsDegreeMismatch) {
  Multigraph path = greedy_edge_coloring(make_path(3));
  Multigraph edge(2);
  edge.add_edge(0, 1, 0);
  // Middle node of the path has degree 2, image would have degree 1.
  EXPECT_FALSE(is_covering_map(path, edge, {0, 1, 0}));
}

TEST(CoveringMap, RejectsColourMismatch) {
  Multigraph a(2), b(2);
  a.add_edge(0, 1, 0);
  b.add_edge(0, 1, 1);
  EXPECT_FALSE(is_covering_map(a, b, {0, 1}));
}

TEST(CoveringMap, DirectedLoopCoveredByCycle) {
  // A directed n-cycle covers the single directed loop (PO convention).
  Digraph loop = make_directed_cycle(1);
  for (NodeId n : {2, 3, 6}) {
    Digraph cyc = make_directed_cycle(n);
    std::vector<NodeId> alpha(static_cast<std::size_t>(n), 0);
    EXPECT_TRUE(is_covering_map(cyc, loop, alpha)) << n;
  }
}

TEST(Lift, UnfoldLoopDoublesAndIsCovering) {
  // Covering validity is asserted inside unfold_loop; check the shape too.
  Multigraph g = make_loop_star(3);
  TwoLift gg = unfold_loop(g, 1);
  EXPECT_EQ(gg.graph.node_count(), 2);
  EXPECT_EQ(gg.graph.edge_count(), 2 * 2 + 1);
  // The joining edge is last and carries the unfolded loop's colour.
  const auto& join = gg.graph.edge(gg.graph.edge_count() - 1);
  EXPECT_FALSE(join.is_loop());
  EXPECT_EQ(join.color, 1);
  EXPECT_EQ(gg.graph.degree(gg.copy0(0)), 3);
  EXPECT_EQ(gg.graph.degree(gg.copy1(0)), 3);
}

TEST(Lift, UnfoldRejectsNonLoop) {
  Multigraph g = greedy_edge_coloring(make_path(2));
  EXPECT_THROW(unfold_loop(g, 0), ContractViolation);
}

TEST(Lift, InvolutionLiftIsSimple) {
  Rng rng{61};
  for (int trial = 0; trial < 6; ++trial) {
    Multigraph g = make_loopy_tree(5, 5, rng);
    Lift lifted = involution_lift(g, 8);
    EXPECT_TRUE(lifted.graph.is_simple());
    EXPECT_EQ(lifted.graph.node_count(), g.node_count() * 8);
  }
}

TEST(Lift, RandomPermutationLiftValidates) {
  Rng rng{62};
  Multigraph g = greedy_edge_coloring(make_random_graph(8, 0.4, rng));
  Lift lifted = random_permutation_lift(g, 5, rng);
  EXPECT_EQ(lifted.graph.node_count(), g.node_count() * 5);
  EXPECT_EQ(lifted.graph.edge_count(), g.edge_count() * 5);
}

TEST(UniversalCover, TreeIsItsOwnCover) {
  Rng rng{63};
  Multigraph t = greedy_edge_coloring(make_random_tree(10, rng));
  ViewTree view = universal_cover_view(t, 0, 20);  // deeper than diameter
  EXPECT_EQ(view.size(), t.node_count());
}

TEST(UniversalCover, CycleUnrollsToPath) {
  Multigraph c = greedy_edge_coloring(make_cycle(4));
  ViewTree view = universal_cover_view(c, 0, 3);
  // Radius-3 view of an (infinite) path: 1 + 2 + 2 + 2 nodes.
  EXPECT_EQ(view.size(), 7);
  Multigraph as_graph = view.to_multigraph();
  EXPECT_TRUE(as_graph.is_forest_ignoring_loops());
  EXPECT_TRUE(as_graph.is_simple());
}

TEST(UniversalCover, HalfLoopBehavesLikeK2) {
  // A single half-loop node: UG = K2; deeper truncations stay 2 nodes.
  Multigraph g = make_loop_star(1);
  ViewTree view = universal_cover_view(g, 0, 5);
  EXPECT_EQ(view.size(), 2);
}

TEST(UniversalCover, DirectedLoopUnrollsToLine) {
  Digraph g = make_directed_cycle(1);
  DiViewTree view = universal_cover_view(g, 0, 3);
  EXPECT_EQ(view.size(), 7);  // root + 3 forward + 3 backward
  Digraph line = view.to_digraph();
  EXPECT_TRUE(line.has_proper_po_coloring());
}

TEST(UniversalCover, LoopStarGrowsLikeRegularTree) {
  // Δ half-loops: UG is the Δ-regular tree.
  Multigraph g = make_loop_star(3);
  ViewTree view = universal_cover_view(g, 0, 2);
  EXPECT_EQ(view.size(), 1 + 3 + 3 * 2);
}

TEST(FactorGraph, VertexTransitiveCollapsesToOneNode) {
  // A cycle with a 2-colouring alternating 0/1 (even length).
  Multigraph c(6);
  for (NodeId v = 0; v < 6; ++v) c.add_edge(v, (v + 1) % 6, v % 2);
  ASSERT_TRUE(c.has_proper_edge_coloring());
  FactorGraph fg = factor_graph(c);
  EXPECT_EQ(fg.graph.node_count(), 1);
  EXPECT_EQ(fg.graph.loop_count(0), 2);  // two half-loops, colours 0 and 1
}

TEST(FactorGraph, K2CollapsesToHalfLoop) {
  Multigraph k2(2);
  k2.add_edge(0, 1, 0);
  FactorGraph fg = factor_graph(k2);
  EXPECT_EQ(fg.graph.node_count(), 1);
  EXPECT_EQ(fg.graph.loop_count(0), 1);
  EXPECT_EQ(fg.graph.degree(0), 1);  // half-loop counts once (Figure 3)
}

TEST(FactorGraph, AsymmetricGraphIsItsOwnFactor) {
  // A path with distinct colours has no non-trivial symmetry.
  Multigraph p(3);
  p.add_edge(0, 1, 0);
  p.add_edge(1, 2, 1);
  FactorGraph fg = factor_graph(p);
  EXPECT_EQ(fg.graph.node_count(), 3);
}

TEST(FactorGraph, IdempotentOnQuotients) {
  Rng rng{64};
  for (int trial = 0; trial < 6; ++trial) {
    Multigraph g = make_loopy_tree(6, 5, rng);
    FactorGraph fg = factor_graph(g);
    FactorGraph fg2 = factor_graph(fg.graph);
    EXPECT_EQ(fg2.graph.node_count(), fg.graph.node_count());
    EXPECT_EQ(fg2.graph.edge_count(), fg.graph.edge_count());
  }
}

TEST(FactorGraph, LiftsShareTheFactorGraph) {
  // FG of a lift equals FG of the base — the factor graph is the common
  // minimal object below both.
  Rng rng{65};
  Multigraph g = make_loopy_tree(4, 4, rng);
  FactorGraph base_fg = factor_graph(g);
  Lift lifted = involution_lift(g, 8);
  FactorGraph lift_fg = factor_graph(lifted.graph);
  EXPECT_EQ(lift_fg.graph.node_count(), base_fg.graph.node_count());
  EXPECT_EQ(lift_fg.graph.edge_count(), base_fg.graph.edge_count());
}

TEST(FactorGraph, DirectedCycleCollapses) {
  Digraph c = make_directed_cycle(5);
  DiFactorGraph fg = factor_graph(c);
  EXPECT_EQ(fg.graph.node_count(), 1);
  ASSERT_EQ(fg.graph.arc_count(), 1);
  EXPECT_TRUE(fg.graph.arc(0).is_loop());
}

TEST(Loopiness, LoopStarIsDeltaLoopy) {
  for (int d : {1, 3, 6}) {
    EXPECT_EQ(loopiness(make_loop_star(d)), d);
  }
}

TEST(Loopiness, LoopyTreeMeetsConstruction) {
  Rng rng{66};
  Multigraph g = make_loopy_tree(8, 6, rng);
  EXPECT_GE(loopiness(g), 1);
}

TEST(Loopiness, SimpleAsymmetricGraphIsZeroLoopy) {
  Multigraph p(3);
  p.add_edge(0, 1, 0);
  p.add_edge(1, 2, 1);
  EXPECT_EQ(loopiness(p), 0);
}

TEST(Loopiness, VertexTransitiveCycleIsLoopyDespiteSimplicity) {
  // Figure 4's moral: loopiness is about the *factor graph*, not about
  // loops literally present in the input.
  Multigraph c(6);
  for (NodeId v = 0; v < 6; ++v) c.add_edge(v, (v + 1) % 6, v % 2);
  EXPECT_EQ(loopiness(c), 2);
}

TEST(Loopiness, DirectedLoopCounting) {
  Digraph g = make_directed_cycle(4);
  EXPECT_EQ(loopiness(g), 1);
}

// --- Differential test of the factor-graph kernel -------------------------
//
// The reference oracle is the map-based colour refinement the library used
// before its flat kernel: each round rebuilds a std::map from sorted
// signatures to class ids, numbered by first occurrence, until the
// labelling repeats. Both must produce the same class_of and the same
// quotient edge list, edge for edge.

template <typename SignatureFn>
std::vector<NodeId> reference_refine(NodeId n, SignatureFn signature) {
  std::vector<NodeId> cls(static_cast<std::size_t>(n), 0);
  for (;;) {
    std::map<decltype(signature(NodeId{0}, cls)), NodeId> index;
    std::vector<NodeId> next(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) {
      auto sig = signature(v, cls);
      auto [it, inserted] =
          index.insert({std::move(sig), static_cast<NodeId>(index.size())});
      next[static_cast<std::size_t>(v)] = it->second;
    }
    if (next == cls) return cls;
    cls = std::move(next);
  }
}

// First node of each class, in class order.
std::vector<NodeId> reference_representatives(const std::vector<NodeId>& cls) {
  NodeId class_count = 0;
  for (NodeId c : cls) class_count = std::max(class_count, c + 1);
  std::vector<NodeId> rep(static_cast<std::size_t>(class_count), kNoNode);
  for (std::size_t v = 0; v < cls.size(); ++v) {
    NodeId& r = rep[static_cast<std::size_t>(cls[v])];
    if (r == kNoNode) r = static_cast<NodeId>(v);
  }
  return rep;
}

FactorGraph reference_factor_graph(const Multigraph& g) {
  auto signature = [&](NodeId v, const std::vector<NodeId>& cls) {
    std::vector<std::pair<Color, NodeId>> sig;
    for (EdgeId e : g.incident_edges(v)) {
      sig.emplace_back(g.edge(e).color,
                       cls[static_cast<std::size_t>(g.other_endpoint(e, v))]);
    }
    std::sort(sig.begin(), sig.end());
    return sig;
  };
  FactorGraph out;
  out.class_of = reference_refine(g.node_count(), signature);
  const std::vector<NodeId> rep = reference_representatives(out.class_of);
  const auto class_count = static_cast<NodeId>(rep.size());
  out.graph.add_nodes(class_count);
  for (NodeId c = 0; c < class_count; ++c) {
    NodeId v = rep[static_cast<std::size_t>(c)];
    for (EdgeId e : g.incident_edges(v)) {
      NodeId d = out.class_of[static_cast<std::size_t>(g.other_endpoint(e, v))];
      if (d == c) {
        out.graph.add_edge(c, c, g.edge(e).color);
      } else if (c < d) {
        out.graph.add_edge(c, d, g.edge(e).color);
      }
    }
  }
  return out;
}

DiFactorGraph reference_factor_graph(const Digraph& g) {
  auto signature = [&](NodeId v, const std::vector<NodeId>& cls) {
    std::vector<std::tuple<int, Color, NodeId>> sig;
    for (EdgeId a : g.out_arcs(v)) {
      sig.emplace_back(0, g.arc(a).color,
                       cls[static_cast<std::size_t>(g.arc(a).head)]);
    }
    for (EdgeId a : g.in_arcs(v)) {
      sig.emplace_back(1, g.arc(a).color,
                       cls[static_cast<std::size_t>(g.arc(a).tail)]);
    }
    std::sort(sig.begin(), sig.end());
    return sig;
  };
  DiFactorGraph out;
  out.class_of = reference_refine(g.node_count(), signature);
  const std::vector<NodeId> rep = reference_representatives(out.class_of);
  const auto class_count = static_cast<NodeId>(rep.size());
  out.graph.add_nodes(class_count);
  for (NodeId c = 0; c < class_count; ++c) {
    for (EdgeId a : g.out_arcs(rep[static_cast<std::size_t>(c)])) {
      NodeId d = out.class_of[static_cast<std::size_t>(g.arc(a).head)];
      out.graph.add_arc(c, d, g.arc(a).color);
    }
  }
  return out;
}

using EdgeList = std::vector<std::tuple<NodeId, NodeId, Color>>;

EdgeList edge_list(const Multigraph& g) {
  EdgeList out;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    out.emplace_back(g.edge(e).u, g.edge(e).v, g.edge(e).color);
  }
  return out;
}

EdgeList edge_list(const Digraph& g) {
  EdgeList out;
  for (EdgeId a = 0; a < g.arc_count(); ++a) {
    out.emplace_back(g.arc(a).tail, g.arc(a).head, g.arc(a).color);
  }
  return out;
}

template <typename Graph>
void expect_matches_reference(const Graph& g, const std::string& what) {
  const auto want = reference_factor_graph(g);
  const auto got = factor_graph(g);
  EXPECT_EQ(got.class_of, want.class_of) << what;
  EXPECT_EQ(edge_list(got.graph), edge_list(want.graph)) << what;
}

struct ChainSubject {
  std::unique_ptr<EcAlgorithm> alg;
  std::unique_ptr<PoAlgorithm> inner;  // keeps the PO algorithm alive
};

ChainSubject make_chain_subject(const std::string& kind, int delta) {
  ChainSubject s;
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

void expect_chain_matches_reference(const std::string& kind, int delta) {
  ChainSubject s = make_chain_subject(kind, delta);
  AdversaryOptions opts;
  opts.max_rounds = 40000;
  LowerBoundCertificate cert = run_adversary(*s.alg, delta, opts);
  ASSERT_EQ(cert.certified_radius(), delta - 2) << kind << " Δ=" << delta;
  for (const CertificateLevel& lv : cert.levels) {
    const std::string at = kind + " Δ=" + std::to_string(delta) + " level " +
                           std::to_string(lv.level);
    expect_matches_reference(lv.g, at + " G");
    expect_matches_reference(lv.h, at + " H");
  }
}

TEST(FactorGraphKernel, MatchesReferenceOnAdversaryChains) {
  for (const char* kind : {"seq", "two", "po"}) {
    for (int delta = 4; delta <= 11; ++delta) {
      expect_chain_matches_reference(kind, delta);
    }
  }
}

TEST(FactorGraphKernel, MatchesReferenceOnSeqChainDelta14) {
  expect_chain_matches_reference("seq", 14);
}

TEST(FactorGraphKernel, MatchesReferenceOnLoopyTreesAndLifts) {
  Rng rng{67};
  for (int trial = 0; trial < 24; ++trial) {
    const auto n = static_cast<NodeId>(rng.next_in(1, 40));
    const int degree = static_cast<int>(rng.next_in(3, 8));
    Multigraph g = make_loopy_tree(n, degree, rng);
    const std::string at = "loopy tree trial " + std::to_string(trial);
    expect_matches_reference(g, at);
    Lift lifted = involution_lift(g, 2 * degree);
    if (lifted.graph.is_connected()) {
      expect_matches_reference(lifted.graph, at + " involution lift");
    }
    Lift random = random_permutation_lift(g, 4, rng);
    if (random.graph.is_connected()) {
      expect_matches_reference(random.graph, at + " random lift");
    }
  }
}

TEST(FactorGraphKernel, MatchesReferenceOnFigure3Graphs) {
  // Figure 3's shapes: an alternating even cycle (one node, two half-loops),
  // K2 (one half-loop), a distinct-colour path (its own factor graph), a
  // loop star, and a directed cycle (one directed loop).
  Multigraph c6(6);
  for (NodeId v = 0; v < 6; ++v) c6.add_edge(v, (v + 1) % 6, v % 2);
  expect_matches_reference(c6, "alternating C6");
  Multigraph k2(2);
  k2.add_edge(0, 1, 0);
  expect_matches_reference(k2, "K2");
  Multigraph path(3);
  path.add_edge(0, 1, 0);
  path.add_edge(1, 2, 1);
  expect_matches_reference(path, "coloured path");
  // An alternating path: symmetric under v -> 7 - v, so four mirror pairs.
  Multigraph path8(8);
  for (NodeId v = 0; v + 1 < 8; ++v) path8.add_edge(v, v + 1, v % 2);
  expect_matches_reference(path8, "alternating path");
  expect_matches_reference(make_loop_star(6), "loop star");
  expect_matches_reference(make_directed_cycle(6), "directed C6");
  // The Figure 3 bench's lift-invariance rows.
  Rng rng{21};
  for (int k : {2, 4, 8}) {
    Multigraph g = make_loopy_tree(5, 5, rng);
    expect_matches_reference(g, "fig3 base");
    expect_matches_reference(involution_lift(g, std::max(k, 8)).graph,
                             "fig3 lift");
  }
}

TEST(FactorGraphKernel, MatchesReferenceOnColouredRegularGraphs) {
  Rng rng{22};
  for (NodeId n : {8, 64, 256}) {
    Multigraph g = greedy_edge_coloring(make_random_regular(n, 4, rng));
    if (g.is_connected()) expect_matches_reference(g, "regular");
  }
  expect_matches_reference(greedy_edge_coloring(make_cycle(9)), "odd cycle");
  expect_matches_reference(greedy_edge_coloring(make_complete(6)), "K6");
}

// A random k-lift of a PO digraph: arc (t, h, c) becomes k arcs
// (t, i) -> (h, π(i)) of colour c for a random permutation π per arc, so
// every copy keeps one out-end and one in-end per base end (a directed loop
// lifts to a permutation of its node's copies).
Digraph po_lift(const Digraph& base, NodeId k, Rng& rng) {
  Digraph out(base.node_count() * k);
  std::vector<NodeId> perm(static_cast<std::size_t>(k));
  for (EdgeId a = 0; a < base.arc_count(); ++a) {
    std::iota(perm.begin(), perm.end(), 0);
    rng.shuffle(perm);
    const Digraph::Arc& arc = base.arc(a);
    for (NodeId i = 0; i < k; ++i) {
      out.add_arc(arc.tail * k + i,
                  arc.head * k + perm[static_cast<std::size_t>(i)], arc.color);
    }
  }
  return out;
}

TEST(FactorGraphKernel, MatchesReferenceOnPoDigraphs) {
  for (NodeId n : {1, 2, 5, 12}) {
    expect_matches_reference(make_directed_cycle(n), "directed cycle");
  }
  Rng rng{68};
  int checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    Digraph base = make_random_po_graph(
        static_cast<NodeId>(rng.next_in(2, 12)), 0.4, rng);
    if (!base.underlying_multigraph().is_connected()) continue;
    expect_matches_reference(base, "random PO graph");
    Digraph lifted = po_lift(base, 3, rng);
    if (lifted.underlying_multigraph().is_connected()) {
      expect_matches_reference(lifted, "random PO lift");
      ++checked;
    }
  }
  EXPECT_GT(checked, 5);
  // A node with directed loops of two colours and its lifts.
  Digraph loops(1);
  loops.add_arc(0, 0, 0);
  loops.add_arc(0, 0, 1);
  expect_matches_reference(loops, "two directed loops");
  for (int trial = 0; trial < 8; ++trial) {
    Digraph lifted = po_lift(loops, 6, rng);
    if (lifted.underlying_multigraph().is_connected()) {
      expect_matches_reference(lifted, "two directed loops lift");
    }
  }
}

TEST(FactorGraphKernel, MatchesReferenceOnSingleNode) {
  expect_matches_reference(Multigraph(1), "bare node");
  expect_matches_reference(Digraph(1), "bare PO node");
  FactorGraph fg = factor_graph(Multigraph(1));
  EXPECT_EQ(fg.graph.node_count(), 1);
  EXPECT_EQ(fg.graph.edge_count(), 0);
}

TEST(FactorGraphKernel, RejectsImproperOrDisconnectedInput) {
  Multigraph clash(3);
  clash.add_edge(0, 1, 0);
  clash.add_edge(1, 2, 0);
  EXPECT_THROW((void)factor_graph(clash), ContractViolation);
  Multigraph uncoloured(2);
  uncoloured.add_edge(0, 1);
  EXPECT_THROW((void)factor_graph(uncoloured), ContractViolation);
  Multigraph negative(2);
  negative.add_edge(0, 1, -7);
  EXPECT_THROW((void)factor_graph(negative), ContractViolation);
  EXPECT_THROW((void)factor_graph(Multigraph(2)), ContractViolation);

  Digraph out_clash(3);
  out_clash.add_arc(0, 1, 0);
  out_clash.add_arc(0, 2, 0);
  EXPECT_THROW((void)factor_graph(out_clash), ContractViolation);
  EXPECT_THROW((void)factor_graph(Digraph(2)), ContractViolation);
}

// --- Colour values ----------------------------------------------------------
//
// Both parsers accept any colour up to 2^31 - 1, so scratch memory of the
// colouring checks must be bounded by the graph, not by colour values.

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

TEST(ColourValues, HugeColourNeedsNoColourSizedMemory) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        cap_address_space(std::size_t{256} << 20);
        const Multigraph k2 =
            multigraph_from_string("multigraph 2 1\ne 0 1 2147483646\n");
        Multigraph loop(1);
        loop.add_edge(0, 0, 2147483646);
        Multigraph other_colour(1);
        other_colour.add_edge(0, 0, 2147483645);
        const bool ok = k2.has_proper_edge_coloring() &&
                        is_covering_map(k2, loop, {0, 0}) &&
                        !is_covering_map(k2, other_colour, {0, 0}) &&
                        factor_graph(k2).graph.loop_count(0) == 1 &&
                        loopiness(k2) == 1;
        std::exit(ok ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(ColourValues, NegativeColoursAreImproper) {
  // Any negative colour, not just kUncoloured, is not a colour at all.
  for (Color c : {-1, -2, -1000, -2147483647 - 1}) {
    Multigraph g(2);
    g.add_edge(0, 1, c);
    EXPECT_FALSE(g.has_proper_edge_coloring()) << c;
    EXPECT_FALSE(is_covering_map(g, g, {0, 1})) << c;
    Digraph d(2);
    d.add_arc(0, 1, c);
    EXPECT_FALSE(d.has_proper_po_coloring()) << c;
  }
}

TEST(ColourValues, SparseColoursStillCheckedExactly) {
  // Colours far above the edge count take the sort-based path, which must
  // agree with the stamp path on properness and coverings.
  Multigraph clash(3);
  clash.add_edge(0, 1, 1000000);
  clash.add_edge(1, 2, 1000000);
  EXPECT_FALSE(clash.has_proper_edge_coloring());
  Multigraph path(3);
  path.add_edge(0, 1, 1000000);
  path.add_edge(1, 2, 7);
  EXPECT_TRUE(path.has_proper_edge_coloring());
  Multigraph c6(6);
  for (NodeId v = 0; v < 6; ++v) {
    c6.add_edge(v, (v + 1) % 6, v % 2 == 0 ? 5000000 : 3);
  }
  Multigraph base(1);
  base.add_edge(0, 0, 5000000);
  base.add_edge(0, 0, 3);
  EXPECT_TRUE(is_covering_map(c6, base, std::vector<NodeId>(6, 0)));
  EXPECT_EQ(loopiness(c6), 2);
  Multigraph wrong(1);
  wrong.add_edge(0, 0, 5000000);
  wrong.add_edge(0, 0, 4);
  EXPECT_FALSE(is_covering_map(c6, wrong, std::vector<NodeId>(6, 0)));
}

// --- (P2) by loop count -----------------------------------------------------
//
// Every loop at a node of G is a loop of FG at the node's class, so the
// fewest loops at any node bounds loopiness from below; is_k_loopy decides
// by that count and builds the factor graph only when it falls short. Its
// verdict must equal `loopiness(g) >= k` for every k, whichever decides.

// The fewest loops at any node, counted through incidence lists rather than
// the edge list is_k_loopy scans (0 for a graph without nodes).
int fewest_node_loops(const Multigraph& g) {
  int fewest = g.node_count() == 0 ? 0 : std::numeric_limits<int>::max();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    fewest = std::min(fewest, g.loop_count(v));
  }
  return fewest;
}

int fewest_node_loops(const Digraph& g) {
  int fewest = g.node_count() == 0 ? 0 : std::numeric_limits<int>::max();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto& out = g.out_arcs(v);
    fewest = std::min(fewest, static_cast<int>(std::count_if(
                                  out.begin(), out.end(), [&](EdgeId a) {
                                    return g.arc(a).is_loop();
                                  })));
  }
  return fewest;
}

// Checks the lower bound and every verdict for k in 0..Δ+1; returns true
// when the count fell below loopiness, i.e. the factor graph decided some k.
bool expect_count_verdicts(const Multigraph& g, const std::string& what) {
  const int exact = loopiness(g);
  const int count = fewest_node_loops(g);
  EXPECT_GE(exact, count) << what;
  for (int k = 0; k <= g.max_degree() + 1; ++k) {
    EXPECT_EQ(is_k_loopy(g, k), exact >= k) << what << " k=" << k;
    EXPECT_EQ(is_k_loopy_prechecked(g, k), exact >= k) << what << " k=" << k;
  }
  return count < exact;
}

bool expect_count_verdicts(const Digraph& g, const std::string& what) {
  const int exact = loopiness(g);
  const int count = fewest_node_loops(g);
  EXPECT_GE(exact, count) << what;
  for (int k = 0; k <= g.max_degree() + 1; ++k) {
    EXPECT_EQ(is_k_loopy(g, k), exact >= k) << what << " k=" << k;
  }
  return count < exact;
}

TEST(LoopinessByCount, RandomLoopyTrees) {
  Rng rng{71};
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<NodeId>(rng.next_in(1, 40));
    const int degree = static_cast<int>(rng.next_in(3, 9));
    expect_count_verdicts(make_loopy_tree(n, degree, rng),
                          "loopy tree trial " + std::to_string(trial));
  }
}

// A lift turns loops into edges between copies but keeps the factor graph,
// so its loop count falls below its loopiness and the fallback decides.
TEST(LoopinessByCount, LiftsTakeTheFallback) {
  Rng rng{72};
  int fallbacks = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const auto n = static_cast<NodeId>(rng.next_in(1, 24));
    const int degree = static_cast<int>(rng.next_in(3, 8));
    const Multigraph g = make_loopy_tree(n, degree, rng);
    const std::string at = "loopy tree trial " + std::to_string(trial);
    const Lift lifted = involution_lift(g, 2 * degree);
    if (lifted.graph.is_connected()) {
      fallbacks += expect_count_verdicts(lifted.graph, at + " involution");
    }
    const Lift random = random_permutation_lift(g, 4, rng);
    if (random.graph.is_connected()) {
      fallbacks += expect_count_verdicts(random.graph, at + " random");
    }
  }
  EXPECT_GT(fallbacks, 10);
}

TEST(LoopinessByCount, Figure3Graphs) {
  Multigraph c6(6);
  for (NodeId v = 0; v < 6; ++v) c6.add_edge(v, (v + 1) % 6, v % 2);
  EXPECT_TRUE(expect_count_verdicts(c6, "alternating C6"));
  Multigraph k2(2);
  k2.add_edge(0, 1, 0);
  EXPECT_TRUE(expect_count_verdicts(k2, "K2"));
  Multigraph path(3);
  path.add_edge(0, 1, 0);
  path.add_edge(1, 2, 1);
  EXPECT_FALSE(expect_count_verdicts(path, "coloured path"));
  EXPECT_FALSE(expect_count_verdicts(make_loop_star(6), "loop star"));
  EXPECT_TRUE(expect_count_verdicts(make_directed_cycle(6), "directed C6"));
  // Loopless: the count is 0 and the factor graph decides every k >= 1.
  EXPECT_FALSE(expect_count_verdicts(greedy_edge_coloring(make_cycle(9)),
                                     "odd cycle"));
  expect_count_verdicts(greedy_edge_coloring(make_complete(6)), "K6");
  Rng rng{21};
  for (int k : {2, 4, 8}) {
    const Multigraph g = make_loopy_tree(5, 5, rng);
    expect_count_verdicts(g, "fig3 base");
    expect_count_verdicts(involution_lift(g, std::max(k, 8)).graph,
                          "fig3 lift");
  }
}

TEST(LoopinessByCount, PoDigraphs) {
  for (NodeId n : {1, 2, 5, 12}) {
    expect_count_verdicts(make_directed_cycle(n), "directed cycle");
  }
  Rng rng{73};
  for (int trial = 0; trial < 40; ++trial) {
    const Digraph base = make_random_po_graph(
        static_cast<NodeId>(rng.next_in(2, 12)), 0.4, rng);
    if (!base.underlying_multigraph().is_connected()) continue;
    expect_count_verdicts(base, "random PO graph");
    const Digraph lifted = po_lift(base, 3, rng);
    if (lifted.underlying_multigraph().is_connected()) {
      expect_count_verdicts(lifted, "random PO lift");
    }
  }
  // Two directed loops at one node: the count decides up to 2; its lifts
  // turn the loops into cycles and take the fallback.
  Digraph loops(1);
  loops.add_arc(0, 0, 0);
  loops.add_arc(0, 0, 1);
  EXPECT_FALSE(expect_count_verdicts(loops, "two directed loops"));
  int fallbacks = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const Digraph lifted = po_lift(loops, 6, rng);
    if (lifted.underlying_multigraph().is_connected()) {
      fallbacks += expect_count_verdicts(lifted, "two directed loops lift");
    }
  }
  EXPECT_GT(fallbacks, 0);
}

TEST(LoopinessByCount, SingleNodeAndEmptyGraph) {
  expect_count_verdicts(Multigraph(1), "bare node");
  expect_count_verdicts(Digraph(1), "bare PO node");
  EXPECT_EQ(loopiness(Multigraph()), 0);
  EXPECT_EQ(loopiness(Digraph()), 0);
  for (int k : {-1, 0, 1, 2}) {
    EXPECT_EQ(is_k_loopy(Multigraph(), k), k <= 0) << k;
    EXPECT_EQ(is_k_loopy_prechecked(Multigraph(), k), k <= 0) << k;
    EXPECT_EQ(is_k_loopy(Digraph(), k), k <= 0) << k;
  }
}

// The count never answers for a graph loopiness rejects, even when every
// node has enough loops.
TEST(LoopinessByCount, RejectsWhatLoopinessRejects) {
  Multigraph apart(2);
  apart.add_edge(0, 0, 0);
  apart.add_edge(1, 1, 0);
  Multigraph clash(1);
  clash.add_edge(0, 0, 0);
  clash.add_edge(0, 0, 0);
  Multigraph uncoloured(1);
  uncoloured.add_edge(0, 0);
  for (const Multigraph* g : {&apart, &clash, &uncoloured}) {
    EXPECT_THROW((void)loopiness(*g), ContractViolation);
    for (int k : {0, 1}) {
      EXPECT_THROW((void)is_k_loopy(*g, k), ContractViolation) << k;
    }
  }
  Digraph po_apart(2);
  po_apart.add_arc(0, 0, 0);
  po_apart.add_arc(1, 1, 0);
  Digraph po_clash(1);
  po_clash.add_arc(0, 0, 0);
  po_clash.add_arc(0, 0, 0);
  for (const Digraph* g : {&po_apart, &po_clash}) {
    EXPECT_THROW((void)loopiness(*g), ContractViolation);
    for (int k : {0, 1}) {
      EXPECT_THROW((void)is_k_loopy(*g, k), ContractViolation) << k;
    }
  }
}

// §4.3's unfold and mix steps each take at most one loop from a node,
// starting from the base case's Δ and Δ−1, so every node of G_i and H_i
// keeps Δ−1−i loops: on the adversary's chains the count alone decides
// (P2), and no factor graph is built. The refinement kernel charges its
// scratch through charge_alloc, so under a zero budget is_k_loopy can
// answer only if it never reaches the kernel (unless the slow-checks
// oracle is on, which re-derives every count verdict through it).
void expect_count_decides_chain(const std::string& kind, int delta) {
  ChainSubject s = make_chain_subject(kind, delta);
  AdversaryOptions opts;
  opts.max_rounds = 40000;
  const LowerBoundCertificate cert = run_adversary(*s.alg, delta, opts);
  ASSERT_EQ(cert.certified_radius(), delta - 2) << kind << " Δ=" << delta;
  for (const CertificateLevel& lv : cert.levels) {
    const std::string at = kind + " Δ=" + std::to_string(delta) + " level " +
                           std::to_string(lv.level);
    const int need = delta - 1 - lv.level;
    EXPECT_GE(fewest_node_loops(lv.g), need) << at << " G";
    EXPECT_GE(fewest_node_loops(lv.h), need) << at << " H";
    if (slow_checks_enabled()) continue;
    ScopedAllocBudget none(0);
    EXPECT_TRUE(is_k_loopy(lv.g, need)) << at << " G";
    EXPECT_TRUE(is_k_loopy(lv.h, need)) << at << " H";
    EXPECT_THROW((void)loopiness(lv.g), std::bad_alloc) << at;
  }
}

TEST(LoopinessByCount, CountDecidesEveryChainLevel) {
  for (const char* kind : {"seq", "two", "po"}) {
    for (int delta = 3; delta <= 11; ++delta) {
      expect_count_decides_chain(kind, delta);
    }
  }
}

TEST(LoopinessByCount, CountDecidesSeqChainDelta14) {
  expect_count_decides_chain("seq", 14);
}

}  // namespace
}  // namespace ldlb
