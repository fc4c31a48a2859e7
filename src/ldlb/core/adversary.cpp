#include "ldlb/core/adversary.hpp"

#include <vector>

#include "ldlb/core/base_case.hpp"
#include "ldlb/core/propagation.hpp"
#include "ldlb/cover/lift.hpp"
#include "ldlb/cover/loopiness.hpp"
#include "ldlb/local/simulator.hpp"
#include "ldlb/view/isomorphism.hpp"

namespace ldlb {

int adversary_round_budget(int delta, const AdversaryOptions& options) {
  return options.max_rounds > 0 ? options.max_rounds
                                : 16 * (delta + 2) * (delta + 2);
}

namespace {

// Every simulated run of a step shares the round budget, the optional
// observation hooks, the cancellation token and the diagnostics sink.
FractionalMatching run_on(const Multigraph& g, EcAlgorithm& algorithm,
                          int budget, const AdversaryOptions& options) {
  RunOptions run_options;
  run_options.budget.max_rounds = budget;
  run_options.hooks = options.hooks;
  run_options.cancel = options.cancel;
  run_options.diagnostics = options.diagnostics;
  return run_ec(g, algorithm, run_options).matching;
}

// Checks that the algorithm treated the 2-lift anonymously: the two copies
// of every surviving edge got equal weights, and the unfolded edge kept the
// original loop's weight (eq. (2)).
void check_lift_invariance(const FractionalMatching& y_lift,
                           EdgeId surviving_edges, const Rational& loop_weight,
                           const std::string& algo) {
  LDLB_REQUIRE(y_lift.edge_count() == 2 * surviving_edges + 1);
  const std::vector<Rational>& w = y_lift.weights();
  for (EdgeId j = 0; j < surviving_edges; ++j) {
    LDLB_REQUIRE_MSG(
        w[static_cast<std::size_t>(2 * j)] ==
            w[static_cast<std::size_t>(2 * j + 1)],
        "algorithm '" << algo
                      << "' is not lift-invariant: the two copies of edge "
                      << j << " got different weights — not an EC algorithm");
  }
  LDLB_REQUIRE_MSG(
      y_lift.weight(2 * surviving_edges) == loop_weight,
      "algorithm '" << algo
                    << "' is not lift-invariant: the unfolded loop changed "
                       "weight from " << loop_weight << " to "
                    << y_lift.weight(2 * surviving_edges));
}

void verify_level(const CertificateLevel& lv, int delta,
                  const AdversaryOptions& options) {
  if (options.verify_p1) {
    LDLB_ENSURE_MSG(
        balls_isomorphic(lv.g, lv.g_node, lv.h, lv.h_node, lv.level),
        "level " << lv.level << ": witness neighbourhoods not isomorphic");
    LDLB_ENSURE_MSG(lv.g_weight != lv.h_weight,
                    "level " << lv.level << ": witness weights equal");
  }
  if (options.verify_p2) {
    int need = delta - 1 - lv.level;
    LDLB_ENSURE_MSG(is_k_loopy(lv.g, need) && is_k_loopy(lv.h, need),
                    "level " << lv.level << ": pair is not " << need
                             << "-loopy");
  }
}

// Builds the mix graph GH (Section 4.3): a copy of G − e, a copy of H − f,
// and a new colour-c edge joining g and h. Edge ids: G − e edges first (in
// without_edge order), then H − f edges, then the joining edge last.
Multigraph build_mix(const Multigraph& g, EdgeId e, NodeId g_node,
                     const Multigraph& h, EdgeId f, NodeId h_node, Color c) {
  Multigraph mix;
  mix.reserve_nodes(g.node_count() + h.node_count());
  mix.add_nodes(g.node_count() + h.node_count());
  mix.reserve_edges(g.edge_count() + h.edge_count() - 1);
  for (EdgeId j = 0; j < g.edge_count(); ++j) {
    if (j == e) continue;
    const auto& ed = g.edge(j);
    mix.add_edge(ed.u, ed.v, ed.color);
  }
  const NodeId off = g.node_count();
  for (EdgeId j = 0; j < h.edge_count(); ++j) {
    if (j == f) continue;
    const auto& ed = h.edge(j);
    mix.add_edge(ed.u + off, ed.v + off, ed.color);
  }
  mix.add_edge(g_node, h_node + off, c);
  return mix;
}

}  // namespace

AdversaryStepPlan plan_adversary_step(const CertificateLevel& prev) {
  AdversaryStepPlan plan;
  // The mix's weight on the new colour-c edge decides which unfolding
  // becomes the next G.
  plan.gh = build_mix(prev.g, prev.g_loop, prev.g_node, prev.h, prev.h_loop,
                      prev.h_node, prev.c);
  plan.gg = unfold_loop(prev.g, prev.g_loop);
  plan.hh = unfold_loop(prev.h, prev.h_loop);
  plan.g_surviving = prev.g.edge_count() - 1;
  plan.h_surviving = prev.h.edge_count() - 1;
  plan.mix_edge = plan.gh.edge_count() - 1;
  return plan;
}

CertificateLevel combine_adversary_step(int delta,
                                        const CertificateLevel& prev,
                                        AdversaryStepPlan&& plan,
                                        FractionalMatching y_gh,
                                        const BranchFetch& fetch,
                                        const std::string& algorithm_name,
                                        const AdversaryOptions& options) {
  const Rational w_mix = y_gh.weight(plan.mix_edge);

  CertificateLevel next;
  next.level = prev.level + 1;

  if (w_mix != prev.g_weight) {
    // Case (GG, GH): the disagreement lives in the shared copy of G − e.
    FractionalMatching y_gg = fetch(/*want_gg=*/true);
    check_lift_invariance(y_gg, plan.g_surviving, prev.g_weight,
                          algorithm_name);

    Multigraph common = prev.g.without_edge(prev.g_loop);
    const std::vector<Rational>& wgg = y_gg.weights();
    std::vector<Rational> w1(static_cast<std::size_t>(plan.g_surviving));
    for (EdgeId j = 0; j < plan.g_surviving; ++j) {
      w1[static_cast<std::size_t>(j)] =
          wgg[static_cast<std::size_t>(2 * j)];  // copy 0 of GG
    }
    // G-part of GH is the id prefix: adopt y_gh's vector and truncate.
    std::vector<Rational> w2 = std::move(y_gh).take_weights();
    w2.resize(static_cast<std::size_t>(plan.g_surviving));
    FractionalMatching y1(std::move(w1)), y2(std::move(w2));
    // Seed: the colour-c end at g carries w_e in GG and w_mix in GH.
    PropagationResult hit =
        propagate_disagreement(common, y1, y2, prev.g_node, kNoEdge);

    next.g = std::move(plan.gg.graph);
    next.h = std::move(plan.gh);
    next.g_node = hit.node;  // copy 0 keeps base ids
    next.h_node = hit.node;  // G-part of GH keeps base ids
    next.c = common.edge(hit.loop).color;
    next.g_loop = 2 * hit.loop;
    next.h_loop = hit.loop;
    next.g_weight = y1.weight(hit.loop);
    next.h_weight = y2.weight(hit.loop);
    next.propagation_steps = static_cast<int>(hit.path.size());
  } else {
    // w_mix == w_e != w_f — case (HH, GH): disagreement in the copy of H−f.
    LDLB_ENSURE(w_mix != prev.h_weight);
    FractionalMatching y_hh = fetch(/*want_gg=*/false);
    check_lift_invariance(y_hh, plan.h_surviving, prev.h_weight,
                          algorithm_name);

    Multigraph common = prev.h.without_edge(prev.h_loop);
    const std::vector<Rational>& whh = y_hh.weights();
    std::vector<Rational> w1(static_cast<std::size_t>(plan.h_surviving));
    for (EdgeId j = 0; j < plan.h_surviving; ++j) {
      w1[static_cast<std::size_t>(j)] =
          whh[static_cast<std::size_t>(2 * j)];  // copy 0 of HH
    }
    // H-part of GH occupies ids [g_surviving, g_surviving + h_surviving):
    // adopt y_gh's vector and slide the segment down to the front.
    std::vector<Rational> w2 = std::move(y_gh).take_weights();
    std::move(w2.begin() + plan.g_surviving,
              w2.begin() + plan.g_surviving + plan.h_surviving, w2.begin());
    w2.resize(static_cast<std::size_t>(plan.h_surviving));
    FractionalMatching y1(std::move(w1)), y2(std::move(w2));
    PropagationResult hit =
        propagate_disagreement(common, y1, y2, prev.h_node, kNoEdge);

    next.g = std::move(plan.hh.graph);
    next.h = std::move(plan.gh);
    next.g_node = hit.node;
    next.h_node = hit.node + prev.g.node_count();  // H-part of GH is offset
    next.c = common.edge(hit.loop).color;
    next.g_loop = 2 * hit.loop;
    next.h_loop = plan.g_surviving + hit.loop;
    next.g_weight = y1.weight(hit.loop);
    next.h_weight = y2.weight(hit.loop);
    next.propagation_steps = static_cast<int>(hit.path.size());
  }

  verify_level(next, delta, options);
  return next;
}

CertificateLevel adversary_step(EcAlgorithm& algorithm, int delta,
                                const CertificateLevel& prev,
                                const AdversaryOptions& options) {
  if (options.cancel) options.cancel->check();
  const int budget = adversary_round_budget(delta, options);
  AdversaryStepPlan plan = plan_adversary_step(prev);

  // GH first; only the unfolding its mix weight selects is ever simulated.
  FractionalMatching y_gh = run_on(plan.gh, algorithm, budget, options);
  // `plan` outlives the combine call, so the reference capture is sound.
  const BranchFetch fetch = [&](bool want_gg) {
    return run_on(want_gg ? plan.gg.graph : plan.hh.graph, algorithm, budget,
                  options);
  };
  return combine_adversary_step(delta, prev, std::move(plan), std::move(y_gh),
                                fetch, algorithm.name(), options);
}

LowerBoundCertificate run_adversary(EcAlgorithm& algorithm, int delta,
                                    const AdversaryOptions& options) {
  LDLB_REQUIRE(delta >= 2);
  LowerBoundCertificate cert;
  cert.delta = delta;
  cert.algorithm_name = algorithm.name();

  CertificateLevel level =
      build_base_case(algorithm, delta, adversary_round_budget(delta, options));
  verify_level(level, delta, options);
  cert.levels.push_back(level);
  // Steps for i = 0 .. Δ-3 produce levels 1 .. Δ-2; beyond that the pairs
  // would no longer be loopy and Lemma 2 stops forcing saturation.
  for (int i = 0; i + 1 <= delta - 2; ++i) {
    if (options.cancel) options.cancel->check();
    level = adversary_step(algorithm, delta, level, options);
    cert.levels.push_back(level);
  }
  LDLB_ENSURE(cert.certified_radius() == delta - 2);
  return cert;
}

}  // namespace ldlb
