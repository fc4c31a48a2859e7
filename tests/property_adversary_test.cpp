// Parameterised sweep of the lower-bound adversary: for every subject
// algorithm and every Δ in range, the full chain must complete at level
// Δ-2, satisfy the paper's (P1)–(P3) invariants, survive serialisation,
// and validate independently.
#include <gtest/gtest.h>

#include <memory>

#include "ldlb/core/adversary.hpp"
#include "ldlb/core/certificate.hpp"
#include "ldlb/core/certificate_io.hpp"
#include "ldlb/core/sim_ec_po.hpp"
#include "ldlb/cover/loopiness.hpp"
#include "ldlb/matching/proposal_packing.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/matching/two_phase_packing.hpp"
#include "ldlb/view/ball.hpp"
#include "ldlb/view/isomorphism.hpp"

namespace ldlb {
namespace {

enum class Subject { kSeqColor, kTwoPhase, kSimulatedPo };

std::string subject_name(Subject s) {
  switch (s) {
    case Subject::kSeqColor: return "SeqColor";
    case Subject::kTwoPhase: return "TwoPhase";
    case Subject::kSimulatedPo: return "SimulatedPo";
  }
  return "?";
}

using Param = std::tuple<Subject, int>;

class AdversaryProperty : public ::testing::TestWithParam<Param> {
 protected:
  struct Bundle {
    std::unique_ptr<EcAlgorithm> alg;
    std::unique_ptr<PoAlgorithm> inner;  // keeps the PO algorithm alive
  };

  Bundle make_subject(int delta) {
    Bundle b;
    switch (std::get<0>(GetParam())) {
      case Subject::kSeqColor:
        b.alg = std::make_unique<SeqColorPacking>(delta);
        break;
      case Subject::kTwoPhase:
        b.alg = std::make_unique<TwoPhasePacking>(delta);
        break;
      case Subject::kSimulatedPo: {
        auto po = std::make_unique<ProposalPacking>();
        b.alg = std::make_unique<EcFromPo>(*po);
        b.inner = std::move(po);
        break;
      }
    }
    return b;
  }

  AdversaryOptions options() {
    AdversaryOptions opts;
    opts.max_rounds = 40000;
    return opts;
  }
};

TEST_P(AdversaryProperty, ChainCompletesWithPaperInvariants) {
  const int delta = std::get<1>(GetParam());
  Bundle subject = make_subject(delta);
  LowerBoundCertificate cert =
      run_adversary(*subject.alg, delta, options());

  EXPECT_EQ(cert.certified_radius(), delta - 2);
  ASSERT_EQ(static_cast<int>(cert.levels.size()), delta - 1);

  for (const auto& lv : cert.levels) {
    // Sizes: 2^i nodes, degree <= Δ.
    EXPECT_EQ(lv.g.node_count(), NodeId{1} << lv.level);
    EXPECT_LE(lv.g.max_degree(), delta);
    EXPECT_LE(lv.h.max_degree(), delta);
    // (P3) trees with loops.
    EXPECT_TRUE(lv.g.is_forest_ignoring_loops());
    EXPECT_TRUE(lv.h.is_forest_ignoring_loops());
    // (P2) (Δ-1-i)-loopiness, at every level.
    const int need = delta - 1 - lv.level;
    EXPECT_GE(loopiness(lv.g), need);
    EXPECT_GE(loopiness(lv.h), need);
    // (P1) isomorphic neighbourhoods, differing outputs.
    EXPECT_TRUE(balls_isomorphic(extract_ball(lv.g, lv.g_node, lv.level),
                                 extract_ball(lv.h, lv.h_node, lv.level)));
    EXPECT_NE(lv.g_weight, lv.h_weight);
    // Witness loops carry the right colour.
    EXPECT_EQ(lv.g.edge(lv.g_loop).color, lv.c);
    EXPECT_EQ(lv.h.edge(lv.h_loop).color, lv.c);
  }
}

TEST_P(AdversaryProperty, CertificateSurvivesSerialisation) {
  const int delta = std::get<1>(GetParam());
  Bundle subject = make_subject(delta);
  LowerBoundCertificate cert =
      run_adversary(*subject.alg, delta, options());
  LowerBoundCertificate reloaded =
      certificate_from_string(certificate_to_string(cert));
  EXPECT_TRUE(certificate_is_valid(reloaded, *subject.alg,
                                   /*check_loopiness=*/false));
}

// Full validation, (P2) included, at the size the chain-d14 benchmark
// workload certifies: 4096-node graphs at the last level.
TEST(AdversaryFullValidation, SeqColorDelta14) {
  const int delta = 14;
  SeqColorPacking alg{delta};
  LowerBoundCertificate cert = run_adversary(alg, delta);
  ASSERT_EQ(cert.certified_radius(), delta - 2);
  EXPECT_EQ(cert.levels.back().g.node_count(), NodeId{1} << (delta - 2));
  EXPECT_TRUE(certificate_is_valid(cert, alg, /*check_loopiness=*/true));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdversaryProperty,
    ::testing::Combine(::testing::Values(Subject::kSeqColor,
                                         Subject::kTwoPhase,
                                         Subject::kSimulatedPo),
                       ::testing::Values(3, 4, 5, 6, 7)),
    [](const ::testing::TestParamInfo<Param>& param_info) {
      return subject_name(std::get<0>(param_info.param)) + "Delta" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace ldlb
