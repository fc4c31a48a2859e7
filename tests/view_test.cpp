// Tests for ball extraction (Section 3.1's τ_t) and rooted coloured
// isomorphism. Property (P1) on the refinement kernel has its own binary,
// p1_kernel_test.
#include <gtest/gtest.h>

#include "ldlb/graph/edge_coloring.hpp"
#include "ldlb/graph/generators.hpp"
#include "ldlb/util/rng.hpp"
#include "ldlb/view/ball.hpp"
#include "ldlb/view/isomorphism.hpp"

namespace ldlb {
namespace {

TEST(Ball, RadiusZeroIsBareNode) {
  // Section 4.2: τ_0(G_0, v) has no edges — loops live at distance 1.
  Multigraph g = make_loop_star(4);
  Ball b = extract_ball(g, 0, 0);
  EXPECT_EQ(b.graph.node_count(), 1);
  EXPECT_EQ(b.graph.edge_count(), 0);
}

TEST(Ball, RadiusOneIncludesLoops) {
  Multigraph g = make_loop_star(4);
  Ball b = extract_ball(g, 0, 1);
  EXPECT_EQ(b.graph.edge_count(), 4);
  EXPECT_EQ(b.graph.loop_count(0), 4);
}

TEST(Ball, EdgeDistanceConvention) {
  // Path 0-1-2-3: τ_1(,0) = {0,1} + edge; τ_2(,0) adds node 2 and edge
  // {1,2} (distance min(1,2)+1 = 2).
  Multigraph g = make_path(4);
  Ball b1 = extract_ball(g, 0, 1);
  EXPECT_EQ(b1.graph.node_count(), 2);
  EXPECT_EQ(b1.graph.edge_count(), 1);
  Ball b2 = extract_ball(g, 0, 2);
  EXPECT_EQ(b2.graph.node_count(), 3);
  EXPECT_EQ(b2.graph.edge_count(), 2);
}

TEST(Ball, CenterIsAlwaysNodeZero) {
  Rng rng{81};
  Multigraph g = make_random_graph(12, 0.3, rng);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    Ball b = extract_ball(g, v, 2);
    EXPECT_EQ(b.center, 0);
    EXPECT_EQ(b.to_host[0], v);
  }
}

TEST(Ball, WholeGraphAtLargeRadius) {
  Rng rng{82};
  Multigraph g = make_random_tree(9, rng);
  Ball b = extract_ball(g, 0, 100);
  EXPECT_EQ(b.graph.node_count(), g.node_count());
  EXPECT_EQ(b.graph.edge_count(), g.edge_count());
}

TEST(RootedIso, SelfIsomorphism) {
  Rng rng{83};
  Multigraph g = make_loopy_tree(6, 5, rng);
  EXPECT_TRUE(rooted_isomorphic(g, 2, g, 2));
}

TEST(RootedIso, DetectsIsomorphicRelabelings) {
  // Build the same coloured tree twice with node ids permuted.
  Multigraph a(3);
  a.add_edge(0, 1, 0);
  a.add_edge(0, 2, 1);
  a.add_edge(2, 2, 0);
  Multigraph b(3);
  b.add_edge(2, 1, 0);   // a's {0,1}
  b.add_edge(2, 0, 1);   // a's {0,2}
  b.add_edge(0, 0, 0);   // a's loop at 2
  auto iso = rooted_isomorphism(a, 0, b, 2);
  ASSERT_TRUE(iso.has_value());
  EXPECT_EQ((*iso)[0], 2);
  EXPECT_EQ((*iso)[1], 1);
  EXPECT_EQ((*iso)[2], 0);
}

TEST(RootedIso, ColourMismatchRejected) {
  Multigraph a(2), b(2);
  a.add_edge(0, 1, 0);
  b.add_edge(0, 1, 1);
  EXPECT_FALSE(rooted_isomorphic(a, 0, b, 0));
}

TEST(RootedIso, RootPlacementMatters) {
  // A coloured path 0-1-2: rooted at an end vs at the middle differ.
  Multigraph p(3);
  p.add_edge(0, 1, 0);
  p.add_edge(1, 2, 1);
  EXPECT_FALSE(rooted_isomorphic(p, 0, p, 1));
  // Same path rooted at either... ends differ too: node 0 sees colour 0,
  // node 2 sees colour 1.
  EXPECT_FALSE(rooted_isomorphic(p, 0, p, 2));
}

TEST(RootedIso, LoopVersusEdgeDistinguished) {
  // A loop at the root is NOT isomorphic to an edge to a leaf: the leaf's
  // degree differs from the root's.
  Multigraph with_loop = make_loop_star(1);
  Multigraph with_edge(2);
  with_edge.add_edge(0, 1, 0);
  EXPECT_FALSE(rooted_isomorphic(with_loop, 0, with_edge, 0));
}

TEST(RootedIso, WorksOnCycles) {
  // The propagation-based matcher handles non-trees too.
  Multigraph c1(4), c2(4);
  for (NodeId v = 0; v < 4; ++v) c1.add_edge(v, (v + 1) % 4, v % 2);
  for (NodeId v = 0; v < 4; ++v) c2.add_edge((v + 2) % 4, (v + 3) % 4, v % 2);
  EXPECT_TRUE(rooted_isomorphic(c1, 0, c2, 2));
}

TEST(RootedIso, DigraphOrientationMatters) {
  Digraph a(2), b(2);
  a.add_arc(0, 1, 0);
  b.add_arc(1, 0, 0);
  EXPECT_FALSE(rooted_isomorphic(a, 0, b, 0));
  EXPECT_TRUE(rooted_isomorphic(a, 0, b, 1));
}

TEST(BallsIsomorphic, RadiusMustMatch) {
  Multigraph g = make_loop_star(2);
  Ball b0 = extract_ball(g, 0, 0);
  Ball b1 = extract_ball(g, 0, 1);
  EXPECT_FALSE(balls_isomorphic(b0, b1));
  EXPECT_TRUE(balls_isomorphic(b1, extract_ball(g, 0, 1)));
}

}  // namespace
}  // namespace ldlb
