// Tests for the PO digraph type: loop conventions, colouring validation,
// and the underlying-multigraph projection.
#include "ldlb/graph/digraph.hpp"

#include <gtest/gtest.h>

#include "ldlb/graph/generators.hpp"
#include "ldlb/util/error.hpp"
#include "ldlb/util/rng.hpp"

namespace ldlb {
namespace {

TEST(Digraph, EmptyGraph) {
  Digraph g;
  EXPECT_EQ(g.node_count(), 0);
  EXPECT_EQ(g.arc_count(), 0);
  EXPECT_EQ(g.max_degree(), 0);
}

TEST(Digraph, DirectedLoopCountsTwice) {
  // Section 3.5: a directed loop contributes +2 — one out-end, one in-end.
  Digraph g(1);
  g.add_arc(0, 0, 0);
  EXPECT_EQ(g.out_degree(0), 1);
  EXPECT_EQ(g.in_degree(0), 1);
  EXPECT_EQ(g.degree(0), 2);
}

TEST(Digraph, DegreeSplitsByDirection) {
  Digraph g(3);
  g.add_arc(0, 1, 0);
  g.add_arc(2, 0, 0);
  g.add_arc(0, 2, 1);
  EXPECT_EQ(g.out_degree(0), 2);
  EXPECT_EQ(g.in_degree(0), 1);
  EXPECT_EQ(g.degree(0), 3);
}

TEST(Digraph, PoColoringAllowsInOutColourSharing) {
  // (v,u) and (u,w) may share a colour (Section 3.3).
  Digraph g(3);
  g.add_arc(0, 1, 0);
  g.add_arc(1, 2, 0);
  EXPECT_TRUE(g.has_proper_po_coloring());
}

TEST(Digraph, PoColoringRejectsDuplicateOutColours) {
  Digraph g(3);
  g.add_arc(0, 1, 0);
  g.add_arc(0, 2, 0);
  EXPECT_FALSE(g.has_proper_po_coloring());
}

TEST(Digraph, PoColoringRejectsDuplicateInColours) {
  Digraph g(3);
  g.add_arc(1, 0, 0);
  g.add_arc(2, 0, 0);
  EXPECT_FALSE(g.has_proper_po_coloring());
}

TEST(Digraph, PoColoringHugeColoursCheckedExactly) {
  // Colours far above the arc count take the sort-based path, which must
  // reach the stamp path's verdicts.
  constexpr Color kBig = 2147483646;
  for (const Color base : {Color{0}, kBig - 1}) {
    Digraph loop(1);  // a directed loop's out- and in-end share its colour
    loop.add_arc(0, 0, base);
    loop.add_arc(0, 0, base + 1);
    EXPECT_TRUE(loop.has_proper_po_coloring()) << base;
    Digraph outs(3);
    outs.add_arc(0, 1, base + 1);
    outs.add_arc(0, 2, base + 1);
    EXPECT_FALSE(outs.has_proper_po_coloring()) << base;
    Digraph ins(3);
    ins.add_arc(1, 0, base);
    ins.add_arc(2, 0, base);
    EXPECT_FALSE(ins.has_proper_po_coloring()) << base;
    Digraph path(3);
    path.add_arc(0, 1, base);
    path.add_arc(1, 2, base);
    EXPECT_TRUE(path.has_proper_po_coloring()) << base;
  }
}

TEST(Digraph, UncolouredArcIsNotProper) {
  Digraph g(2);
  g.add_arc(0, 1);
  EXPECT_FALSE(g.has_proper_po_coloring());
}

TEST(Digraph, UnderlyingMultigraphProjection) {
  // Projection forgets directions: a directed loop becomes an undirected
  // loop — note this changes its degree contribution from 2 to 1.
  Digraph g(2);
  g.add_arc(0, 1, 3);
  g.add_arc(0, 0, 5);
  Multigraph u = g.underlying_multigraph();
  EXPECT_EQ(u.edge_count(), 2);
  EXPECT_EQ(u.degree(0), 2);   // edge + loop-once
  EXPECT_EQ(g.degree(0), 3);   // out + out + in
  EXPECT_EQ(u.edge(1).color, 5);
}

TEST(Digraph, GeneratorsProduceProperColourings) {
  Rng rng{211};
  for (int trial = 0; trial < 6; ++trial) {
    Digraph g = make_random_po_graph(12, 0.4, rng);
    EXPECT_TRUE(g.has_proper_po_coloring());
  }
  EXPECT_TRUE(make_directed_cycle(5).has_proper_po_coloring());
}

TEST(Digraph, InvalidEndpointsRejected) {
  Digraph g(2);
  EXPECT_THROW(g.add_arc(0, 2), ContractViolation);
  EXPECT_THROW(g.add_arc(-1, 0), ContractViolation);
  EXPECT_THROW((void)g.arc(0), ContractViolation);
}

}  // namespace
}  // namespace ldlb
