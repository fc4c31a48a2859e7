// Differential tests for the closed-form evaluators behind
// EcAlgorithm::evaluate_direct and PoAlgorithm::evaluate_direct.
//
// run_ec skips the message-passing interpreter whenever an algorithm
// evaluates a run in closed form, so every evaluator must reproduce the
// interpreter field for field — weights (certificate bytes depend on them),
// rounds, messages and message bytes — and must fail exactly where the
// interpreter fails. The interpreter is the oracle throughout; setting
// RunOptions::diagnostics forces it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ldlb/core/adversary.hpp"
#include "ldlb/core/certificate_io.hpp"
#include "ldlb/core/sim_ec_po.hpp"
#include "ldlb/graph/edge_coloring.hpp"
#include "ldlb/graph/generators.hpp"
#include "ldlb/graph/graph_io.hpp"
#include "ldlb/local/simulator.hpp"
#include "ldlb/matching/proposal_packing.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/matching/two_phase_packing.hpp"
#include "ldlb/util/cancellation.hpp"
#include "ldlb/util/rng.hpp"

namespace ldlb {
namespace {

// Large enough for every interpreted run below; the evaluators' own
// counts are checked against it separately.
constexpr int kMaxRounds = 1 << 20;

// certificate_tool's three subjects; `num_colors` is the EC colour budget.
struct Subject {
  std::unique_ptr<EcAlgorithm> alg;
  std::unique_ptr<PoAlgorithm> inner;
};

Subject make_subject(const std::string& kind, int num_colors) {
  Subject s;
  if (kind == "seq") {
    s.alg = std::make_unique<SeqColorPacking>(num_colors);
  } else if (kind == "two") {
    s.alg = std::make_unique<TwoPhasePacking>(num_colors);
  } else {
    s.inner = std::make_unique<ProposalPacking>();
    s.alg = std::make_unique<EcFromPo>(*s.inner);
  }
  return s;
}

const std::vector<std::string> kKinds = {"seq", "two", "po"};

RunResult interpreted(const Multigraph& g, EcAlgorithm& alg, int max_rounds) {
  RunDiagnostics diagnostics;
  RunOptions options;
  options.budget.max_rounds = max_rounds;
  options.diagnostics = &diagnostics;
  return run_ec(g, alg, options);
}

void expect_matches_interpreter(const Multigraph& g, EcAlgorithm& alg,
                                const std::string& label) {
  const std::optional<EcDirectRun> direct = alg.evaluate_direct(g);
  ASSERT_TRUE(direct.has_value()) << label << ": evaluator declined";
  const RunResult ref = interpreted(g, alg, kMaxRounds);
  EXPECT_EQ(direct->rounds, ref.rounds) << label;
  EXPECT_EQ(direct->messages, ref.messages) << label;
  EXPECT_EQ(direct->message_bytes, ref.message_bytes) << label;
  EXPECT_EQ(direct->edge_weights, ref.matching.weights()) << label;
  // The default path returns the same result.
  const RunResult fast = run_ec(g, alg, kMaxRounds);
  EXPECT_EQ(fast.rounds, ref.rounds) << label;
  EXPECT_EQ(fast.matching.weights(), ref.matching.weights()) << label;
}

void expect_all_subjects_match(const Multigraph& g, int num_colors,
                               const std::string& label) {
  for (const std::string& kind : kKinds) {
    Subject s = make_subject(kind, num_colors);
    expect_matches_interpreter(g, *s.alg, kind + " on " + label);
  }
}

struct CorpusGraph {
  Multigraph g;
  int delta = 0;
  std::string label;
};

// Every G_i and H_i of the given subjects' chains, once per distinct graph.
std::vector<CorpusGraph> chain_graphs(const std::vector<std::string>& kinds,
                                      int min_delta, int max_delta) {
  std::vector<CorpusGraph> out;
  std::set<std::string> seen;
  for (const std::string& kind : kinds) {
    for (int delta = min_delta; delta <= max_delta; ++delta) {
      Subject s = make_subject(kind, delta);
      const LowerBoundCertificate cert = run_adversary(*s.alg, delta);
      for (const CertificateLevel& lv : cert.levels) {
        for (const Multigraph* g : {&lv.g, &lv.h}) {
          if (!seen.insert(std::to_string(delta) + graph_to_string(*g))
                   .second) {
            continue;
          }
          out.push_back({*g, delta,
                         kind + " chain delta " + std::to_string(delta) +
                             " level " + std::to_string(lv.level) +
                             (g == &lv.g ? " G" : " H")});
        }
      }
    }
  }
  return out;
}

// A random multigraph with loops, parallel edges and isolated nodes under
// a proper colouring whose colours are scattered over [0, num_colors), so
// some colour classes — and hence some rounds — are empty.
Multigraph random_coloured_multigraph(Rng& rng, int& num_colors) {
  const auto n = static_cast<NodeId>(rng.next_in(1, 24));
  Multigraph raw(n + static_cast<NodeId>(rng.next_in(0, 3)));  // isolated
  const auto edges = rng.next_in(0, 3 * n);
  for (std::int64_t i = 0; i < edges; ++i) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    const auto v = rng.next_below(4) == 0
                       ? u
                       : static_cast<NodeId>(rng.next_below(n));
    raw.add_edge(u, v);
  }
  Multigraph g = greedy_edge_coloring(raw);
  int used = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    used = std::max(used, g.edge(e).color + 1);
  }
  num_colors = used + static_cast<int>(rng.next_in(0, 4));
  std::vector<Color> relabel(static_cast<std::size_t>(num_colors));
  for (int c = 0; c < num_colors; ++c) relabel[static_cast<std::size_t>(c)] = c;
  for (int c = num_colors - 1; c > 0; --c) {
    std::swap(relabel[static_cast<std::size_t>(c)],
              relabel[static_cast<std::size_t>(rng.next_below(
                  static_cast<std::uint64_t>(c) + 1))]);
  }
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    g.set_color(e, relabel[static_cast<std::size_t>(g.edge(e).color)]);
  }
  return g;
}

TEST(DirectEval, ChainGraphsMatchInterpreter) {
  for (const CorpusGraph& c : chain_graphs(kKinds, 3, 11)) {
    expect_all_subjects_match(c.g, c.delta, c.label);
  }
}

TEST(DirectEval, SeqDelta14ChainMatchesInterpreter) {
  for (const CorpusGraph& c : chain_graphs({"seq"}, 14, 14)) {
    Subject s = make_subject("seq", c.delta);
    expect_matches_interpreter(c.g, *s.alg, c.label);
  }
}

TEST(DirectEval, LoopStarsMatchInterpreter) {
  for (int loops = 1; loops <= 12; ++loops) {
    const Multigraph g = make_loop_star(loops);
    expect_all_subjects_match(g, loops, "loop star " + std::to_string(loops));
    expect_all_subjects_match(g, loops + 3,
                              "loop star " + std::to_string(loops) +
                                  " under a wider colour budget");
  }
}

TEST(DirectEval, RandomColouredMultigraphsMatchInterpreter) {
  Rng rng{20140721};
  for (int trial = 0; trial < 120; ++trial) {
    int num_colors = 0;
    const Multigraph g = random_coloured_multigraph(rng, num_colors);
    expect_all_subjects_match(g, num_colors,
                              "random multigraph " + std::to_string(trial));
  }
}

TEST(DirectEval, EdgelessGraphsTakeNoRounds) {
  for (NodeId n : {0, 1, 5}) {
    const Multigraph g(n);
    expect_all_subjects_match(g, 3, "edgeless graph on " + std::to_string(n));
    for (const std::string& kind : kKinds) {
      Subject s = make_subject(kind, 3);
      const std::optional<EcDirectRun> direct = s.alg->evaluate_direct(g);
      ASSERT_TRUE(direct.has_value());
      EXPECT_EQ(direct->rounds, 0) << kind;
      EXPECT_EQ(direct->messages, 0) << kind;
    }
  }
}

// run_po's result and per-round traffic, forced through the interpreter.
struct PoReference {
  RunResult result;
  RunDiagnostics diagnostics;
};

PoReference interpreted_po(const Digraph& g) {
  PoReference ref;
  ProposalPacking alg;
  RunOptions options;
  options.budget.max_rounds = kMaxRounds;
  options.diagnostics = &ref.diagnostics;
  ref.result = run_po(g, alg, options);
  return ref;
}

void expect_po_matches_run_po(const Digraph& g, const std::string& label) {
  ProposalPacking alg;
  std::vector<RoundStats> per_round;
  int last_round = 0;
  bool ordered = true;
  const std::optional<PoDirectRun> direct =
      alg.evaluate_direct(g, [&](const PoSend& send) {
        ordered = ordered && send.round >= last_round && send.round >= 1;
        last_round = send.round;
        if (per_round.size() < static_cast<std::size_t>(send.round)) {
          per_round.resize(static_cast<std::size_t>(send.round));
        }
        RoundStats& stats = per_round[static_cast<std::size_t>(send.round - 1)];
        ++stats.messages;
        stats.bytes += static_cast<long long>(send.bytes);
        // The reported end belongs to the reported node on the reported arc.
        const Digraph::Arc& arc = g.arc(send.arc);
        EXPECT_EQ(send.node, send.end.outgoing ? arc.tail : arc.head) << label;
        EXPECT_EQ(send.end.color, arc.color) << label;
      });
  ASSERT_TRUE(direct.has_value()) << label;
  EXPECT_TRUE(ordered) << label << ": sends not reported in round order";
  const PoReference ref = interpreted_po(g);
  EXPECT_EQ(direct->rounds, ref.result.rounds) << label;
  EXPECT_EQ(direct->arc_weights, ref.result.matching.weights()) << label;
  ASSERT_EQ(per_round.size(), ref.diagnostics.per_round.size()) << label;
  for (std::size_t r = 0; r < per_round.size(); ++r) {
    EXPECT_EQ(per_round[r].messages, ref.diagnostics.per_round[r].messages)
        << label << " round " << r + 1;
    EXPECT_EQ(per_round[r].bytes, ref.diagnostics.per_round[r].bytes)
        << label << " round " << r + 1;
  }
}

TEST(DirectEval, ProposalPackingMatchesRunPoOnDoubledDigraphs) {
  for (const CorpusGraph& c : chain_graphs({"po"}, 3, 8)) {
    expect_po_matches_run_po(double_ec_graph(c.g).digraph,
                             "doubled " + c.label);
  }
  Rng rng{7};
  for (int trial = 0; trial < 40; ++trial) {
    int num_colors = 0;
    const Multigraph g = random_coloured_multigraph(rng, num_colors);
    expect_po_matches_run_po(double_ec_graph(g).digraph,
                             "doubled random multigraph " +
                                 std::to_string(trial));
  }
}

TEST(DirectEval, ProposalPackingMatchesRunPoOnCyclesAndLoops) {
  for (NodeId n = 1; n <= 9; ++n) {
    expect_po_matches_run_po(make_directed_cycle(n),
                             "directed cycle " + std::to_string(n));
  }
  // Directed loops beside ordinary arcs: a loop's two ends share a node.
  Digraph loops(4);
  loops.add_arc(0, 0, 0);
  loops.add_arc(0, 0, 1);
  loops.add_arc(1, 1, 0);
  loops.add_arc(0, 1, 2);
  loops.add_arc(1, 2, 1);
  loops.add_arc(2, 2, 2);
  expect_po_matches_run_po(loops, "directed loops");
  Rng rng{11};
  for (int trial = 0; trial < 20; ++trial) {
    expect_po_matches_run_po(make_random_po_graph(14, 0.3, rng),
                             "random PO graph " + std::to_string(trial));
  }
  expect_po_matches_run_po(Digraph(3), "arcless digraph");
}

// The interpreter notices an overrun on entering round budget + 1, so the
// closed form must report that round, not its own count, as used.
void expect_same_budget_error(const Multigraph& g, EcAlgorithm& alg,
                              int budget, const std::string& label) {
  std::optional<BudgetExceeded> fast;
  std::optional<BudgetExceeded> slow;
  try {
    (void)run_ec(g, alg, budget);
  } catch (const BudgetExceeded& e) {
    fast = e;
  }
  try {
    (void)interpreted(g, alg, budget);
  } catch (const BudgetExceeded& e) {
    slow = e;
  }
  ASSERT_TRUE(fast.has_value()) << label;
  ASSERT_TRUE(slow.has_value()) << label;
  EXPECT_EQ(fast->kind(), BudgetExceeded::Kind::kRounds) << label;
  EXPECT_EQ(fast->kind(), slow->kind()) << label;
  EXPECT_EQ(fast->limit(), slow->limit()) << label;
  EXPECT_EQ(fast->used(), slow->used()) << label;
  EXPECT_STREQ(fast->what(), slow->what()) << label;
}

TEST(DirectEval, RoundBudgetOneShortFailsIdentically) {
  std::vector<CorpusGraph> graphs = chain_graphs(kKinds, 4, 6);
  graphs.push_back({make_loop_star(5), 5, "loop star 5"});
  for (const CorpusGraph& c : graphs) {
    for (const std::string& kind : kKinds) {
      Subject s = make_subject(kind, c.delta);
      const std::optional<EcDirectRun> direct = s.alg->evaluate_direct(c.g);
      ASSERT_TRUE(direct.has_value());
      if (direct->rounds < 2) continue;  // a budget must be positive
      const std::string label = kind + " on " + c.label;
      expect_same_budget_error(c.g, *s.alg, direct->rounds - 1, label);
      expect_same_budget_error(c.g, *s.alg, 1, label + " with budget 1");
      // With the evaluated count as the budget, both paths succeed.
      EXPECT_EQ(run_ec(c.g, *s.alg, direct->rounds).rounds, direct->rounds)
          << label;
    }
  }
}

TEST(DirectEval, InterpretedAdversaryGivesIdenticalCertificates) {
  for (const std::string& kind : kKinds) {
    for (int delta = 3; delta <= 10; ++delta) {
      Subject s = make_subject(kind, delta);
      const std::string fast =
          certificate_to_string(run_adversary(*s.alg, delta));
      RunDiagnostics diagnostics;
      AdversaryOptions options;
      options.diagnostics = &diagnostics;  // every run interpreted
      const std::string slow =
          certificate_to_string(run_adversary(*s.alg, delta, options));
      EXPECT_EQ(fast, slow) << kind << " delta " << delta;
    }
  }
}

TEST(DirectEval, OutOfRangeColourSurfacesTheNodeError) {
  Multigraph g(3);
  g.add_edge(0, 1, 0);
  g.add_edge(1, 2, 3);
  for (const std::string kind : {"seq", "two"}) {
    Subject s = make_subject(kind, 3);
    EXPECT_FALSE(s.alg->evaluate_direct(g).has_value()) << kind;
    for (const bool force_interpreter : {false, true}) {
      try {
        if (force_interpreter) {
          (void)interpreted(g, *s.alg, 100);
        } else {
          (void)run_ec(g, *s.alg, 100);
        }
        ADD_FAILURE() << kind << ": expected ContractViolation";
      } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "edge colour 3 out of range [0, 3)"),
                  std::string::npos)
            << kind << ": " << e.what();
      }
    }
  }
}

// SeqColorPacking that counts how often run_ec asks for a closed form.
class CountingSeq : public SeqColorPacking {
 public:
  using SeqColorPacking::SeqColorPacking;
  [[nodiscard]] std::optional<EcDirectRun> evaluate_direct(
      const Multigraph& g) const override {
    ++calls;
    return SeqColorPacking::evaluate_direct(g);
  }
  mutable int calls = 0;
};

TEST(DirectEval, CancelledTokenSkipsTheEvaluation) {
  const Multigraph g = make_loop_star(4);
  CountingSeq alg{4};
  CancellationToken token;
  token.request_cancel("stop");
  RunOptions options;
  options.budget.max_rounds = 10;
  options.cancel = &token;
  EXPECT_THROW((void)run_ec(g, alg, options), Cancelled);
  EXPECT_EQ(alg.calls, 0);
  CancellationToken live;
  options.cancel = &live;
  EXPECT_EQ(run_ec(g, alg, options).rounds, 4);
  EXPECT_EQ(alg.calls, 1);
}

// SeqColorPacking whose closed form miscounts the traffic by one message.
class MiscountingSeq : public SeqColorPacking {
 public:
  using SeqColorPacking::SeqColorPacking;
  [[nodiscard]] std::optional<EcDirectRun> evaluate_direct(
      const Multigraph& g) const override {
    std::optional<EcDirectRun> run = SeqColorPacking::evaluate_direct(g);
    if (run) ++run->messages;
    return run;
  }
};

TEST(DirectEval, SlowChecksCatchAnEvaluatorThatDisagrees) {
  // The latch is read once per process, so the check runs in a fresh child.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        ::setenv("LDLB_SLOW_CHECKS", "1", 1);
        MiscountingSeq alg{4};
        try {
          (void)run_ec(make_loop_star(4), alg, 10);
        } catch (const ContractViolation& e) {
          const bool named = std::string(e.what()).find(
                                 "disagrees with the interpreter") !=
                             std::string::npos;
          std::exit(named ? 3 : 4);
        }
        std::exit(5);
      },
      ::testing::ExitedWithCode(3), "");
}

}  // namespace
}  // namespace ldlb
