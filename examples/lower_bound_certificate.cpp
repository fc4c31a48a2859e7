// The paper's Theorem 1 as an executable artefact: run the Section-4
// adversary against the O(Δ)-round algorithm and print the machine-checked
// certificate chain.
//
//   $ ./lower_bound_certificate [delta]     (default delta = 6)
//
// For each level i the pair (G_i, H_i) has isomorphic radius-i
// neighbourhoods around the witnesses yet the algorithm outputs different
// weights there — so the algorithm is not i-local. The chain reaches
// i = Δ-2: the algorithm needs at least Δ-1 rounds. Every claim printed
// here is re-verified by the independent validator at the end.
#include <cstdlib>
#include <iostream>

#include "ldlb/core/adversary.hpp"
#include "ldlb/cover/loopiness.hpp"
#include "ldlb/matching/two_phase_packing.hpp"
#include "ldlb/view/ball.hpp"
#include "ldlb/view/isomorphism.hpp"

int main(int argc, char** argv) {
  using namespace ldlb;
  const int delta = argc > 1 ? std::atoi(argv[1]) : 6;
  if (delta < 2 || delta > 16) {
    std::cerr << "delta must be in [2, 16]\n";
    return 2;
  }

  TwoPhasePacking algorithm{delta};
  std::cout << "Adversary (unfold & mix, Section 4) vs '" << algorithm.name()
            << "' at max degree Δ = " << delta << "\n\n";

  // (P2) is checked as each level is built and again by the validator: one
  // factor graph per stored graph, ~0.16 s per pass over the whole Δ=16
  // chain on one thread, against ~2 s for the adversary itself.
  AdversaryOptions opts;
  opts.verify_p2 = true;
  LowerBoundCertificate cert = run_adversary(algorithm, delta, opts);

  for (const auto& lv : cert.levels) {
    std::cout << "level " << lv.level << ": |G|=" << lv.g.node_count()
              << " |H|=" << lv.h.node_count() << "  witness colour " << lv.c
              << ", weights " << lv.g_weight << " vs " << lv.h_weight
              << "  (propagation walked " << lv.propagation_steps
              << " edges)\n";
    // Show the (P1) evidence explicitly for the first few levels.
    if (lv.level <= 2) {
      Ball bg = extract_ball(lv.g, lv.g_node, lv.level);
      Ball bh = extract_ball(lv.h, lv.h_node, lv.level);
      std::cout << "         τ_" << lv.level << " balls: " << bg.graph.node_count()
                << " nodes each, isomorphic: "
                << (balls_isomorphic(bg, bh) ? "yes" : "NO") << ", loopiness "
                << loopiness(lv.g) << "/" << loopiness(lv.h) << "\n";
    }
  }

  std::cout << "\ncertified radius: " << cert.certified_radius()
            << "  =>  '" << algorithm.name() << "' needs more than "
            << cert.certified_radius() << " rounds (Ω(Δ), Theorem 1)\n";

  bool valid = certificate_is_valid(cert, algorithm,
                                    /*check_loopiness=*/true);
  std::cout << "independent validation: " << (valid ? "PASS" : "FAIL") << "\n";
  return valid ? 0 : 1;
}
