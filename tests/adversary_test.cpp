// End-to-end tests of the Section-4 lower-bound adversary: it must build a
// complete certificate chain against the O(Δ)-round packing algorithm, every
// level must validate independently, and impostor algorithms must be caught.
#include "ldlb/core/adversary.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "ldlb/core/base_case.hpp"
#include "ldlb/core/sim_ec_po.hpp"
#include "ldlb/graph/generators.hpp"
#include "ldlb/cover/loopiness.hpp"
#include "ldlb/local/simulator.hpp"
#include "ldlb/matching/checker.hpp"
#include "ldlb/matching/proposal_packing.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/matching/two_phase_packing.hpp"
#include "ldlb/util/error.hpp"
#include "ldlb/view/ball.hpp"
#include "ldlb/view/isomorphism.hpp"

namespace ldlb {
namespace {

TEST(BaseCase, SatisfiesP1P2P3) {
  for (int delta : {2, 3, 5, 8}) {
    SeqColorPacking alg{delta};
    CertificateLevel lv = build_base_case(alg, delta, delta + 1);
    EXPECT_EQ(lv.level, 0);
    // P3: trees with loops.
    EXPECT_TRUE(lv.g.is_forest_ignoring_loops());
    EXPECT_TRUE(lv.h.is_forest_ignoring_loops());
    // P2: G_0 is Δ-loopy, H_0 is (Δ-1)-loopy.
    EXPECT_GE(loopiness(lv.g), delta);
    EXPECT_GE(loopiness(lv.h), delta - 1);
    // P1 witnesses: same colour, different weights, loops at the witnesses.
    EXPECT_EQ(lv.g.edge(lv.g_loop).color, lv.c);
    EXPECT_EQ(lv.h.edge(lv.h_loop).color, lv.c);
    EXPECT_NE(lv.g_weight, lv.h_weight);
    // τ_0 neighbourhoods: bare nodes, trivially isomorphic.
    EXPECT_TRUE(balls_isomorphic(extract_ball(lv.g, lv.g_node, 0),
                                 extract_ball(lv.h, lv.h_node, 0)));
  }
}

TEST(Adversary, SingleStepProducesValidLevel) {
  const int delta = 4;
  SeqColorPacking alg{delta};
  AdversaryOptions opts;
  opts.verify_p2 = true;  // full paper properties at small scale
  CertificateLevel lv0 = build_base_case(alg, delta, delta + 1);
  CertificateLevel lv1 = adversary_step(alg, delta, lv0, opts);
  EXPECT_EQ(lv1.level, 1);
  EXPECT_EQ(lv1.g.node_count(), 2 * lv0.g.node_count());
  EXPECT_NE(lv1.g_weight, lv1.h_weight);
  EXPECT_TRUE(lv1.g.is_forest_ignoring_loops());
  EXPECT_TRUE(lv1.h.is_forest_ignoring_loops());
}

TEST(Adversary, FullChainReachesDeltaMinusTwo) {
  for (int delta : {3, 4, 5, 6}) {
    SeqColorPacking alg{delta};
    AdversaryOptions opts;
    opts.verify_p2 = true;
    LowerBoundCertificate cert = run_adversary(alg, delta, opts);
    EXPECT_EQ(cert.certified_radius(), delta - 2) << "delta=" << delta;
    EXPECT_EQ(static_cast<int>(cert.levels.size()), delta - 1);
    // Graph sizes double per level.
    for (const auto& lv : cert.levels) {
      EXPECT_EQ(lv.g.node_count(), NodeId{1} << lv.level);
      EXPECT_LE(lv.g.max_degree(), delta);
      EXPECT_LE(lv.h.max_degree(), delta);
    }
  }
}

TEST(Adversary, CertificateValidatesIndependently) {
  const int delta = 6;
  SeqColorPacking alg{delta};
  LowerBoundCertificate cert = run_adversary(alg, delta);
  auto validations = validate_certificate(cert, alg, /*check_loopiness=*/true);
  ASSERT_EQ(validations.size(), cert.levels.size());
  for (const auto& v : validations) {
    EXPECT_TRUE(v.degree_ok) << "level " << v.level;
    EXPECT_TRUE(v.shape_ok) << "level " << v.level;
    EXPECT_TRUE(v.loopy_ok) << "level " << v.level;
    EXPECT_TRUE(v.witness_loops_ok) << "level " << v.level;
    EXPECT_TRUE(v.balls_isomorphic) << "level " << v.level;
    EXPECT_TRUE(v.outputs_differ) << "level " << v.level;
    EXPECT_TRUE(v.weights_match_stored) << "level " << v.level;
  }
  EXPECT_TRUE(certificate_is_valid(cert, alg));
}

TEST(Adversary, TamperedCertificateIsRejected) {
  const int delta = 4;
  SeqColorPacking alg{delta};
  LowerBoundCertificate cert = run_adversary(alg, delta);
  // Tamper: claim a different weight at the last level.
  cert.levels.back().g_weight += Rational(1, 7);
  EXPECT_FALSE(certificate_is_valid(cert, alg));
}

TEST(Adversary, MismatchedWitnessLoopIsRejected) {
  const int delta = 4;
  SeqColorPacking alg{delta};
  LowerBoundCertificate cert = run_adversary(alg, delta);
  // Tamper: point the witness at a non-loop edge (any tree edge exists at
  // levels >= 1).
  auto& lv = cert.levels[1];
  for (EdgeId e = 0; e < lv.g.edge_count(); ++e) {
    if (!lv.g.edge(e).is_loop()) {
      lv.g_loop = e;
      break;
    }
  }
  EXPECT_FALSE(certificate_is_valid(cert, alg));
}

// (P2) is judged on exactly the preconditions of factor graphs, a proper
// colouring and connectivity, not on the composite clauses: a graph of
// degree Δ+1 still gets its loopiness verdict, and an improperly coloured
// one is reported as not loopy instead of throwing. The subject is the
// simulated-PO algorithm, which, unlike seq, accepts a colour beyond Δ−1.
TEST(Adversary, LoopinessVerdictNeedsOnlyColouringAndConnectivity) {
  const int delta = 5;
  ProposalPacking inner;
  EcFromPo alg{inner};
  const LowerBoundCertificate cert = run_adversary(alg, delta);
  for (std::size_t i = 0; i < cert.levels.size(); ++i) {
    const CertificateLevel& lv = cert.levels[i];
    const int need = delta - 1 - lv.level;

    // Loops in fresh colours at node 0 up to degree Δ+1: still properly
    // coloured and connected.
    LowerBoundCertificate wide = cert;
    Multigraph& wg = wide.levels[i].g;
    for (Color c = delta; wg.degree(0) <= delta; ++c) wg.add_edge(0, 0, c);
    const LevelValidation w = validate_certificate(wide, alg)[i];
    EXPECT_FALSE(w.degree_ok) << "level " << i;
    EXPECT_EQ(w.loopy_ok, loopiness(wide.levels[i].g) >= need &&
                              loopiness(lv.h) >= need)
        << "level " << i;

    // The witness loop recoloured to clash with another end at g_i.
    LowerBoundCertificate clash = cert;
    Multigraph& g = clash.levels[i].g;
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      if (e != lv.g_loop && (g.edge(e).u == lv.g_node ||
                             g.edge(e).v == lv.g_node)) {
        g.set_color(lv.g_loop, g.edge(e).color);
        break;
      }
    }
    ASSERT_FALSE(g.has_proper_edge_coloring()) << "level " << i;
    LevelValidation c;
    EXPECT_NO_THROW(c = validate_certificate(clash, alg)[i]) << "level " << i;
    EXPECT_FALSE(c.degree_ok) << "level " << i;
    EXPECT_FALSE(c.loopy_ok) << "level " << i;
    EXPECT_FALSE(certificate_is_valid(clash, alg));
  }
}

TEST(Adversary, AlgorithmOutputsStayMaximalOnAllLevels) {
  // The adversary only ever feeds the algorithm legal loopy EC-graphs; the
  // algorithm's outputs must be maximal (and, by Lemma 2, fully saturated)
  // on every one of them.
  const int delta = 5;
  SeqColorPacking alg{delta};
  LowerBoundCertificate cert = run_adversary(alg, delta);
  for (const auto& lv : cert.levels) {
    RunResult rg = run_ec(lv.g, alg, delta + 1);
    RunResult rh = run_ec(lv.h, alg, delta + 1);
    EXPECT_TRUE(check_fully_saturated(lv.g, rg.matching).ok);
    EXPECT_TRUE(check_fully_saturated(lv.h, rh.matching).ok);
  }
}

// Theorem 1 tripwire. A valid level i certifies that A is not i-local, so A
// needs more than i rounds on G_i or on H_i. A level where both round
// counts are at most i means the validator or the simulator is unsound.
// Only po's case can trip: its round count tracks the level (i+2 or i+3
// at level i). The colour sweeps pass trivially, since every level graph
// keeps G_0's Δ colours at every node: seq runs Δ rounds and two 2Δ on
// every level, above any i ≤ Δ−2.
void expect_rounds_exceed_levels(EcAlgorithm& alg, int delta) {
  const std::string at = alg.name() + " Δ=" + std::to_string(delta);
  const int budget = 40000;
  AdversaryOptions opts;
  opts.max_rounds = budget;
  const LowerBoundCertificate cert = run_adversary(alg, delta, opts);
  ASSERT_EQ(cert.certified_radius(), delta - 2) << at;
  ASSERT_TRUE(certificate_is_valid(cert, alg)) << at;
  for (const CertificateLevel& lv : cert.levels) {
    const int rounds = std::max(run_ec(lv.g, alg, budget).rounds,
                                run_ec(lv.h, alg, budget).rounds);
    EXPECT_GT(rounds, lv.level) << at << " level " << lv.level;
  }
}

TEST(TheoremOneTripwire, SeqTwoPoDelta3To9) {
  for (int delta = 3; delta <= 9; ++delta) {
    SeqColorPacking seq{delta};
    expect_rounds_exceed_levels(seq, delta);
    TwoPhasePacking two{delta};
    expect_rounds_exceed_levels(two, delta);
    ProposalPacking inner;
    EcFromPo po{inner};
    expect_rounds_exceed_levels(po, delta);
  }
}

TEST(TheoremOneTripwire, SeqDelta14) {
  SeqColorPacking seq{14};
  expect_rounds_exceed_levels(seq, 14);
}

TEST(Adversary, ScalesToDelta12) {
  // Larger-scale smoke: at Δ = 12 the final pair has 2^10 = 1024 nodes.
  // Build the full chain and spot-validate the deepest level.
  const int delta = 12;
  SeqColorPacking alg{delta};
  LowerBoundCertificate cert = run_adversary(alg, delta);
  EXPECT_EQ(cert.certified_radius(), delta - 2);
  const auto& last = cert.levels.back();
  EXPECT_EQ(last.g.node_count(), 1 << (delta - 2));
  EXPECT_TRUE(balls_isomorphic(
      extract_ball(last.g, last.g_node, last.level),
      extract_ball(last.h, last.h_node, last.level)));
  EXPECT_NE(last.g_weight, last.h_weight);
}

// Impostor: uses a global node counter — distinguishable on lifts, i.e. not
// an anonymous EC algorithm. The adversary's lift-invariance audit must
// refuse to certify it.
class CountingImpostor : public EcAlgorithm {
 public:
  class Node : public EcNodeState {
   public:
    Node(std::vector<Color> colors, int serial)
        : colors_(std::move(colors)), serial_(serial) {}
    std::map<Color, Message> send(int) override { return {}; }
    void receive(int, const std::map<Color, Message>&) override {
      done_ = true;
    }
    [[nodiscard]] bool halted() const override { return done_; }
    [[nodiscard]] std::map<Color, Rational> output() const override {
      // Put all weight on one loop chosen by the *global serial number* —
      // illegal use of non-local information.
      std::map<Color, Rational> out;
      for (Color c : colors_) out[c] = Rational(0);
      if (!colors_.empty()) {
        Color pick = colors_[static_cast<std::size_t>(serial_) % colors_.size()];
        out[pick] = Rational(1);
      }
      return out;
    }

   private:
    std::vector<Color> colors_;
    int serial_;
    bool done_ = false;
  };
  std::unique_ptr<EcNodeState> make_node(const EcNodeContext& ctx) override {
    return std::make_unique<Node>(ctx.incident_colors, serial_++);
  }
  [[nodiscard]] std::string name() const override { return "Impostor"; }

 private:
  int serial_ = 0;
};

TEST(Adversary, RejectsNonLiftInvariantImpostor) {
  CountingImpostor alg;
  EXPECT_THROW(run_adversary(alg, 5), Error);
}

// Nondeterministic algorithm: outputs depend on a per-run counter, so two
// runs disagree. The adversary assumes deterministic subjects; the
// independent validator must refuse the resulting certificate because the
// re-run weights do not match the stored ones.
class FlakyAlgorithm : public EcAlgorithm {
 public:
  class Node : public EcNodeState {
   public:
    Node(std::vector<Color> colors, bool flip)
        : colors_(std::move(colors)), flip_(flip) {}
    std::map<Color, Message> send(int) override { return {}; }
    void receive(int, const std::map<Color, Message>&) override {
      done_ = true;
    }
    [[nodiscard]] bool halted() const override { return done_; }
    [[nodiscard]] std::map<Color, Rational> output() const override {
      // Saturate via the first or last loop depending on the run parity —
      // consistent within a run (loops are single-ended), flaky across runs.
      std::map<Color, Rational> out;
      for (Color c : colors_) out[c] = Rational(0);
      if (!colors_.empty()) {
        out[flip_ ? colors_.back() : colors_.front()] = Rational(1);
      }
      return out;
    }

   private:
    std::vector<Color> colors_;
    bool flip_;
    bool done_ = false;
  };
  std::unique_ptr<EcNodeState> make_node(const EcNodeContext& ctx) override {
    return std::make_unique<Node>(ctx.incident_colors, flipped_);
  }
  void flip() { flipped_ = true; }
  [[nodiscard]] std::string name() const override { return "Flaky"; }

 private:
  bool flipped_ = false;
};

TEST(Adversary, ValidatorRejectsNondeterministicSubject) {
  // Build a base case while the algorithm behaves one way; flip its
  // behaviour; validation re-runs it and sees different weights.
  FlakyAlgorithm alg;
  LowerBoundCertificate cert;
  cert.delta = 4;
  cert.algorithm_name = alg.name();
  CertificateLevel lv = build_base_case(alg, 4, 5);
  cert.levels.push_back(lv);
  alg.flip();  // behaviour changes between certification and validation
  auto validations = validate_certificate(cert, alg, false);
  ASSERT_EQ(validations.size(), 1u);
  EXPECT_FALSE(validations[0].weights_match_stored);
  EXPECT_FALSE(certificate_is_valid(cert, alg, false));
}

// Broken algorithm: outputs all-zero weights (never saturates anything).
class AllZero : public EcAlgorithm {
 public:
  class Node : public EcNodeState {
   public:
    explicit Node(std::vector<Color> colors) : colors_(std::move(colors)) {}
    std::map<Color, Message> send(int) override { return {}; }
    void receive(int, const std::map<Color, Message>&) override {
      done_ = true;
    }
    [[nodiscard]] bool halted() const override { return done_; }
    [[nodiscard]] std::map<Color, Rational> output() const override {
      std::map<Color, Rational> out;
      for (Color c : colors_) out[c] = Rational(0);
      return out;
    }

   private:
    std::vector<Color> colors_;
    bool done_ = false;
  };
  std::unique_ptr<EcNodeState> make_node(const EcNodeContext& ctx) override {
    return std::make_unique<Node>(ctx.incident_colors);
  }
  [[nodiscard]] std::string name() const override { return "AllZero"; }
};

TEST(Adversary, RejectsNonSaturatingAlgorithmAtBaseCase) {
  AllZero alg;
  EXPECT_THROW(run_adversary(alg, 4), Error);
}

}  // namespace
}  // namespace ldlb
