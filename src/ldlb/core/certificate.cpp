#include "ldlb/core/certificate.hpp"

#include "ldlb/cover/loopiness.hpp"
#include "ldlb/local/simulator.hpp"
#include "ldlb/util/thread_pool.hpp"
#include "ldlb/view/isomorphism.hpp"

namespace ldlb {

namespace {

// Generous round budget for re-running the algorithm during validation: the
// graphs have max degree <= Δ, so any O(Δ)-round algorithm fits easily; even
// slower correct algorithms should fit a quadratic budget.
int round_budget(int delta) { return 16 * (delta + 2) * (delta + 2); }

// A forest on n >= 1 nodes is connected iff it has n - 1 non-loop edges,
// and the empty graph counts as connected, so only a non-forest needs BFS.
bool is_connected_given(const Multigraph& g, bool forest) {
  if (!forest) return g.is_connected();
  EdgeId plain = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) plain += !g.edge(e).is_loop();
  return g.node_count() == 0 || plain == g.node_count() - 1;
}

// True iff every edge colour of `g` is below `delta`.
bool colours_below(const Multigraph& g, int delta) {
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.edge(e).color >= delta) return false;
  }
  return true;
}

}  // namespace

std::vector<LevelValidation> validate_certificate(
    const LowerBoundCertificate& cert, EcAlgorithm& algorithm,
    bool check_loopiness) {
  std::vector<LevelValidation> out(cert.levels.size());
  // Levels are validated independently, so a thread-safe algorithm lets the
  // whole chain fan out across the pool; every result lands in its own
  // slot and parallel_for surfaces the lowest-index failure, so outcome and
  // exception order match the sequential loop.
  const bool par = algorithm.parallel_safe() && global_pool().size() > 1;
  auto validate_one = [&](std::size_t i) {
    const CertificateLevel& lv = cert.levels[i];
    LevelValidation v;
    v.level = lv.level;

    const bool coloured =
        lv.g.has_proper_edge_coloring() && lv.h.has_proper_edge_coloring();
    // An EC algorithm is defined on graphs properly coloured with the
    // colours 0..Δ-1: run_ec requires the colouring, and the subjects are
    // built for Δ colours. Every graph the adversary builds is one.
    const bool in_domain = coloured && colours_below(lv.g, cert.delta) &&
                           colours_below(lv.h, cert.delta);
    const bool g_forest = lv.g.is_forest_ignoring_loops();
    const bool h_forest = lv.h.is_forest_ignoring_loops();
    const bool connected = is_connected_given(lv.g, g_forest) &&
                           is_connected_given(lv.h, h_forest);
    v.degree_ok = lv.g.max_degree() <= cert.delta &&
                  lv.h.max_degree() <= cert.delta && in_domain;
    v.shape_ok = g_forest && h_forest && connected;
    if (check_loopiness) {
      // Loopiness is defined, and is_k_loopy answers, only for graphs with
      // exactly these two properties; a stored graph without them is
      // reported, not thrown on. The degree bound is not one of them, so a
      // degree-Δ+1 graph still gets its loopiness verdict. The adversary's
      // graphs keep Δ-1-i loops at every node, so the loop count decides
      // and no factor graph is built.
      int need = cert.delta - 1 - lv.level;
      v.loopy_ok = coloured && connected &&
                   is_k_loopy_prechecked(lv.g, need) &&
                   is_k_loopy_prechecked(lv.h, need);
    } else {
      v.loopy_ok = true;
    }

    v.witness_loops_ok =
        lv.g_loop >= 0 && lv.g_loop < lv.g.edge_count() &&
        lv.h_loop >= 0 && lv.h_loop < lv.h.edge_count() &&
        lv.g.edge(lv.g_loop).is_loop() && lv.h.edge(lv.h_loop).is_loop() &&
        lv.g.edge(lv.g_loop).u == lv.g_node &&
        lv.h.edge(lv.h_loop).u == lv.h_node &&
        lv.g.edge(lv.g_loop).color == lv.c &&
        lv.h.edge(lv.h_loop).color == lv.c;

    if (v.witness_loops_ok) {
      // P1, decided from the two stored graphs alone.
      v.balls_isomorphic =
          balls_isomorphic(lv.g, lv.g_node, lv.h, lv.h_node, lv.level);
    }
    // Independent re-execution of the algorithm on both graphs. A stored
    // graph outside the algorithm's domain — already reported through
    // degree_ok — leaves both output fields false.
    if (v.witness_loops_ok && in_domain) {
      RunResult run_g = run_ec(lv.g, algorithm, round_budget(cert.delta));
      RunResult run_h = run_ec(lv.h, algorithm, round_budget(cert.delta));
      const Rational& wg = run_g.matching.weight(lv.g_loop);
      const Rational& wh = run_h.matching.weight(lv.h_loop);
      v.outputs_differ = wg != wh;
      v.weights_match_stored = wg == lv.g_weight && wh == lv.h_weight;
    }
    out[i] = v;
  };
  if (par) {
    global_pool().parallel_for(cert.levels.size(), validate_one);
  } else {
    for (std::size_t i = 0; i < cert.levels.size(); ++i) validate_one(i);
  }
  return out;
}

bool certificate_is_valid(const LowerBoundCertificate& cert,
                          EcAlgorithm& algorithm, bool check_loopiness) {
  auto validations = validate_certificate(cert, algorithm, check_loopiness);
  if (validations.size() != cert.levels.size() || validations.empty()) {
    return false;
  }
  for (const auto& v : validations) {
    if (!v.ok()) return false;
  }
  return true;
}

}  // namespace ldlb
