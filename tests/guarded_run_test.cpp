// Tests for the guarded execution wrapper: budget enforcement, typed
// classification of failures (the one ladder, classify_failure), and
// checker integration.
#include "ldlb/fault/guarded_run.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <functional>
#include <iterator>
#include <new>
#include <set>
#include <stdexcept>

#include "ldlb/graph/edge_coloring.hpp"
#include "ldlb/graph/generators.hpp"
#include "ldlb/matching/seq_color_packing.hpp"

namespace ldlb {
namespace {

int num_colors(const Multigraph& g) {
  int k = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    k = std::max(k, g.edge(e).color + 1);
  }
  return k;
}

// Chatty non-halting algorithm used to trip budgets.
class Chatter : public EcAlgorithm {
 public:
  class Node : public EcNodeState {
   public:
    explicit Node(std::vector<Color> colors) : colors_(std::move(colors)) {}
    std::map<Color, Message> send(int) override {
      std::map<Color, Message> out;
      for (Color c : colors_) out[c] = "x";
      return out;
    }
    void receive(int, const std::map<Color, Message>&) override {}
    [[nodiscard]] bool halted() const override { return false; }
    [[nodiscard]] std::map<Color, Rational> output() const override {
      return {};
    }

   private:
    std::vector<Color> colors_;
  };
  std::unique_ptr<EcNodeState> make_node(const EcNodeContext& ctx) override {
    return std::make_unique<Node>(ctx.incident_colors);
  }
  [[nodiscard]] std::string name() const override { return "Chatter"; }
};

// Halts immediately with the all-zero output: passes the simulator's
// cross-check but fails maximality on any graph with an edge.
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

TEST(GuardedRun, CleanRunPassesWithDiagnostics) {
  Multigraph g = greedy_edge_coloring(make_cycle(6));
  SeqColorPacking alg{num_colors(g)};
  GuardedRunOptions options;
  options.budget.max_rounds = 10;
  GuardedOutcome outcome = guarded_run_ec(g, alg, options);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.status, RunStatus::kOk);
  EXPECT_EQ(outcome.classification(), "ok");
  EXPECT_TRUE(outcome.error.empty());
  ASSERT_TRUE(outcome.run.has_value());
  EXPECT_TRUE(outcome.check.ok);
  ASSERT_EQ(outcome.diagnostics.per_round.size(),
            static_cast<std::size_t>(outcome.run->rounds));
  EXPECT_EQ(outcome.diagnostics.per_round[0].live_nodes, 6);
  for (int r : outcome.diagnostics.crash_round) EXPECT_EQ(r, -1);
  for (int r : outcome.diagnostics.halt_round) EXPECT_GT(r, 0);
  EXPECT_TRUE(outcome.diagnostics.first_violation.empty());
}

TEST(GuardedRun, ClassifiesRoundBudget) {
  Multigraph g = greedy_edge_coloring(make_cycle(6));
  Chatter alg;
  GuardedRunOptions options;
  options.budget.max_rounds = 5;
  GuardedOutcome outcome = guarded_run_ec(g, alg, options);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status, RunStatus::kBudgetExceeded);
  EXPECT_EQ(outcome.classification(), "budget-exceeded");
  EXPECT_FALSE(outcome.run.has_value());
  EXPECT_EQ(outcome.diagnostics.first_violation, outcome.error);
  // Partial diagnostics survive the abort: 5 full rounds were recorded.
  EXPECT_EQ(outcome.diagnostics.per_round.size(), 5u);
}

TEST(GuardedRun, ClassifiesMessageBudget) {
  Multigraph g = greedy_edge_coloring(make_cycle(6));
  Chatter alg;
  GuardedRunOptions options;
  options.budget.max_rounds = 100;
  options.budget.max_messages = 30;
  GuardedOutcome outcome = guarded_run_ec(g, alg, options);
  EXPECT_EQ(outcome.status, RunStatus::kBudgetExceeded);
  EXPECT_NE(outcome.error.find("message"), std::string::npos);
}

TEST(GuardedRun, ClassifiesWallClockBudget) {
  Multigraph g = greedy_edge_coloring(make_cycle(6));
  Chatter alg;
  GuardedRunOptions options;
  options.budget.max_rounds = 1000000;
  options.budget.max_wall_seconds = 1e-7;  // rounds down to a 0µs allowance
  GuardedOutcome outcome = guarded_run_ec(g, alg, options);
  EXPECT_EQ(outcome.status, RunStatus::kBudgetExceeded);
  EXPECT_NE(outcome.error.find("wall"), std::string::npos);
}

TEST(GuardedRun, ClassifiesModelViolation) {
  // An improper colouring (two colour-0 ends at node 1) is caught by the
  // simulator's precondition as a contract violation; an announced weight
  // mismatch is a model violation. Use the latter via a mismatched output.
  Multigraph g(2);
  g.add_edge(0, 1, 0);
  class Mismatch : public EcAlgorithm {
   public:
    class Node : public EcNodeState {
     public:
      explicit Node(bool flip) : flip_(flip) {}
      std::map<Color, Message> send(int) override { return {}; }
      void receive(int, const std::map<Color, Message>&) override {
        done_ = true;
      }
      [[nodiscard]] bool halted() const override { return done_; }
      [[nodiscard]] std::map<Color, Rational> output() const override {
        return {{0, flip_ ? Rational(1) : Rational(0)}};
      }

     private:
      bool flip_;
      bool done_ = false;
    };
    std::unique_ptr<EcNodeState> make_node(const EcNodeContext&) override {
      return std::make_unique<Node>((count_++ % 2) == 1);
    }
    [[nodiscard]] std::string name() const override { return "Mismatch"; }

   private:
    int count_ = 0;
  } alg;
  GuardedRunOptions options;
  options.budget.max_rounds = 10;
  GuardedOutcome outcome = guarded_run_ec(g, alg, options);
  EXPECT_EQ(outcome.status, RunStatus::kModelViolation);
  EXPECT_EQ(outcome.classification(), "model-violation");
}

TEST(GuardedRun, ChecksOutputAndReportsViolationSite) {
  Multigraph g = greedy_edge_coloring(make_cycle(6));
  AllZero alg;
  GuardedRunOptions options;
  options.budget.max_rounds = 10;
  GuardedOutcome outcome = guarded_run_ec(g, alg, options);
  // The run itself is clean; the *output* is wrong, and the checker says
  // exactly how.
  EXPECT_EQ(outcome.status, RunStatus::kOk);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.classification(), "check:edge-unsaturated");
  EXPECT_FALSE(outcome.check.ok);
  EXPECT_EQ(outcome.check.report.kind, ViolationKind::kEdgeUnsaturated);
  EXPECT_GE(outcome.check.report.edge, 0);
  EXPECT_EQ(outcome.check.report.amount, Rational(1));  // deficit below 1
  EXPECT_EQ(outcome.diagnostics.first_violation, outcome.check.reason);
}

TEST(GuardedRun, RunStatusToStringCoversEveryValueDistinctly) {
  // The error taxonomy is machine-readable only if every status renders to
  // its own stable, non-null token — fleet error replies, CI triage and the
  // demos all key on these strings.
  const RunStatus all[] = {
      RunStatus::kOk, RunStatus::kBudgetExceeded, RunStatus::kModelViolation,
      RunStatus::kFaultInjected, RunStatus::kContractViolation,
  };
  std::set<std::string> seen;
  for (RunStatus status : all) {
    const char* text = to_string(status);
    ASSERT_NE(text, nullptr);
    EXPECT_STRNE(text, "");
    EXPECT_STRNE(text, "unknown");
    seen.insert(text);
  }
  EXPECT_EQ(seen.size(), std::size(all));
}

// Dies in make_node with an IoError carrying `io_errno`, as an algorithm
// whose environment fails would.
class IoFailing : public SeqColorPacking {
 public:
  IoFailing(int delta, int io_errno)
      : SeqColorPacking(delta), io_errno_(io_errno) {}
  std::unique_ptr<EcNodeState> make_node(const EcNodeContext&) override {
    throw IoError("injected I/O failure", "/dev/flaky", io_errno_);
  }
  [[nodiscard]] std::string name() const override { return "IoFailing"; }

 private:
  int io_errno_;
};

TEST(GuardedRun, AlgorithmIoErrorReportsItsErrno) {
  Multigraph g = greedy_edge_coloring(make_cycle(6));
  IoFailing alg{num_colors(g), EIO};
  GuardedRunOptions options;
  options.budget.max_rounds = num_colors(g) + 1;
  GuardedOutcome outcome = guarded_run_ec(g, alg, options);
  EXPECT_EQ(outcome.status, RunStatus::kEnvFault);
  EXPECT_EQ(outcome.classification(), "env-fault");
  EXPECT_EQ(outcome.env_errno, EIO);
  EXPECT_NE(outcome.error.find("injected I/O failure"), std::string::npos);
  EXPECT_EQ(outcome.diagnostics.first_violation, outcome.error);
  EXPECT_FALSE(outcome.run.has_value());
}

// The one failure ladder: every Error subtype and std::bad_alloc maps to
// its status, and only IoError carries its errno.
TEST(ClassifyFailure, MapsEveryFailureToItsStatus) {
  struct Case {
    std::function<void()> raise;
    RunStatus status;
    int env_errno;
  };
  const Case cases[] = {
      {[] { throw BudgetExceeded("b", BudgetExceeded::Kind::kRounds, 4, 5); },
       RunStatus::kBudgetExceeded, 0},
      {[] { throw ModelViolation("m"); }, RunStatus::kModelViolation, 0},
      {[] { throw FaultInjected("f", "crash-stop"); },
       RunStatus::kFaultInjected, 0},
      {[] { throw Cancelled("c"); }, RunStatus::kCancelled, 0},
      {[] { throw IoError("i", "/dev/null", ENOSPC); }, RunStatus::kEnvFault,
       ENOSPC},
      {[] { throw WorkerLost("w", "signal"); }, RunStatus::kWorkerLost, 0},
      {[] { throw ContractViolation("cv"); }, RunStatus::kContractViolation,
       0},
      {[] { throw ParseError("p", 3, "tok"); }, RunStatus::kContractViolation,
       0},
      {[] { throw Error("e"); }, RunStatus::kContractViolation, 0},
      {[] { throw std::bad_alloc(); }, RunStatus::kEnvFault, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(to_string(c.status));
    RunStatus status = RunStatus::kOk;
    int env_errno = -1;
    const int got = classify_failure(
        [&c] {
          c.raise();
          return 1;
        },
        [&](RunStatus s, const char*, int e) {
          status = s;
          env_errno = e;
          return 2;
        });
    EXPECT_EQ(got, 2);
    EXPECT_EQ(status, c.status);
    EXPECT_EQ(env_errno, c.env_errno);
  }
}

TEST(ClassifyFailure, CleanBodiesAndForeignExceptionsPassThrough) {
  int calls = 0;
  const auto count = [&calls](RunStatus, const char*, int) { return ++calls; };
  EXPECT_EQ(classify_failure([] { return 7; }, count), 7);
  EXPECT_THROW(classify_failure(
                   []() -> int { throw std::runtime_error("not ours"); },
                   count),
               std::runtime_error);
  EXPECT_EQ(calls, 0);
  // The callback runs inside the handler, so `throw;` re-raises the
  // original typed exception after recording its status.
  RunStatus seen = RunStatus::kOk;
  EXPECT_THROW(classify_failure([]() -> int { throw Cancelled("stop"); },
                                [&seen](RunStatus s, const char*, int) -> int {
                                  seen = s;
                                  throw;
                                }),
               Cancelled);
  EXPECT_EQ(seen, RunStatus::kCancelled);
}

TEST(GuardedRun, CheckCanBeDisabled) {
  Multigraph g = greedy_edge_coloring(make_cycle(6));
  AllZero alg;
  GuardedRunOptions options;
  options.budget.max_rounds = 10;
  options.check_output = false;
  GuardedOutcome outcome = guarded_run_ec(g, alg, options);
  EXPECT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.classification(), "ok");
}

}  // namespace
}  // namespace ldlb
