#include "ldlb/core/locality_audit.hpp"

#include <algorithm>
#include <tuple>

#include "ldlb/local/simulator.hpp"
#include "ldlb/view/ball.hpp"
#include "ldlb/view/isomorphism.hpp"

namespace ldlb {

namespace {

struct Entry {
  int graph = 0;
  NodeId node = kNoNode;
  Ball ball;
  std::map<Color, Rational> output;
};

// Coarse bucket key: ball shape statistics. Entries in different buckets
// cannot have isomorphic balls; within a bucket we test pairwise.
using BucketKey = std::tuple<NodeId, EdgeId, int, std::vector<Color>>;

BucketKey bucket_key(const Ball& ball) {
  std::vector<Color> root_colors;
  for (EdgeId e : ball.graph.incident_edges(ball.center)) {
    root_colors.push_back(ball.graph.edge(e).color);
  }
  std::sort(root_colors.begin(), root_colors.end());
  return {ball.graph.node_count(), ball.graph.edge_count(),
          ball.graph.max_degree(), std::move(root_colors)};
}

}  // namespace

std::vector<LocalityViolation> audit_locality(
    EcAlgorithm& algorithm, const std::vector<Multigraph>& corpus, int radius,
    int max_rounds) {
  LDLB_REQUIRE(radius >= 0);
  std::map<BucketKey, std::vector<Entry>> buckets;

  for (std::size_t gi = 0; gi < corpus.size(); ++gi) {
    const Multigraph& g = corpus[gi];
    RunResult run = run_ec(g, algorithm, max_rounds);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      Entry entry;
      entry.graph = static_cast<int>(gi);
      entry.node = v;
      // The audit compares outputs of nodes with isomorphic views, so it
      // needs the views themselves.
      entry.ball = extract_ball(g, v, radius);
      for (EdgeId e : g.incident_edges(v)) {
        entry.output[g.edge(e).color] = run.matching.weight(e);
      }
      buckets[bucket_key(entry.ball)].push_back(std::move(entry));
    }
  }

  std::vector<LocalityViolation> out;
  for (auto& [key, entries] : buckets) {
    for (std::size_t i = 0; i < entries.size(); ++i) {
      for (std::size_t j = i + 1; j < entries.size(); ++j) {
        const Entry& a = entries[i];
        const Entry& b = entries[j];
        if (a.output == b.output) continue;  // outputs agree — no issue
        if (!balls_isomorphic(a.ball, b.ball)) continue;
        LocalityViolation v;
        v.graph_a = a.graph;
        v.graph_b = b.graph;
        v.node_a = a.node;
        v.node_b = b.node;
        v.output_a = a.output;
        v.output_b = b.output;
        out.push_back(std::move(v));
      }
    }
  }
  return out;
}

}  // namespace ldlb
