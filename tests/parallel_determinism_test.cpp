// The parallel engine's contract (docs/PERFORMANCE.md): running the
// adversary or the validator with any number of pool threads produces
// *byte identical* certificates and *identical* accept/reject decisions to
// the serial path. Adversary steps and simulated runs execute on the
// calling thread; only per-level validation uses the pool. These tests pin
// that contract down — including for deliberately broken algorithms, which
// must keep failing in exactly the same way when a thread pool is
// available.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "ldlb/core/adversary.hpp"
#include "ldlb/core/base_case.hpp"
#include "ldlb/core/certificate_io.hpp"
#include "ldlb/fault/budget_hooks.hpp"
#include "ldlb/fault/guarded_run.hpp"
#include "ldlb/local/simulator.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/matching/two_phase_packing.hpp"
#include "ldlb/util/error.hpp"
#include "ldlb/util/thread_pool.hpp"

namespace ldlb {
namespace {

// Restores the global pool to its environment-derived default on scope exit
// so tests do not leak thread-count overrides into each other.
class PoolOverride {
 public:
  explicit PoolOverride(int threads) { ThreadPool::set_global_threads(threads); }
  ~PoolOverride() { ThreadPool::set_global_threads(0); }
};

std::string certificate_bytes(const LowerBoundCertificate& cert) {
  std::ostringstream os;
  write_certificate(os, cert);
  return os.str();
}

std::string run_and_serialize(int delta, int threads) {
  PoolOverride pool(threads);
  SeqColorPacking alg{delta};
  AdversaryOptions opts;
  opts.verify_p2 = true;
  return certificate_bytes(run_adversary(alg, delta, opts));
}

TEST(ThreadPool, ParallelForCoversEveryIndex) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, RethrowsLowestIndexFailureLikeSerial) {
  ThreadPool pool(4);
  // Serial order would hit index 3 first; the pool must report the same
  // failure no matter which worker ran which chunk.
  try {
    pool.parallel_for(100, [](std::size_t i) {
      if (i == 3 || i == 97) {
        throw std::runtime_error("fail at " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "fail at 3");
  }
}

TEST(ParallelDeterminism, CertificatesByteIdenticalAcrossThreadCounts) {
  for (int delta : {4, 5, 6, 7}) {
    const std::string serial = run_and_serialize(delta, 1);
    ASSERT_FALSE(serial.empty());
    for (int threads : {2, 8}) {
      EXPECT_EQ(serial, run_and_serialize(delta, threads))
          << "delta=" << delta << " threads=" << threads;
    }
  }
}

TEST(ParallelDeterminism, TwoPhaseCertificatesByteIdentical) {
  const int delta = 5;
  auto run = [&](int threads) {
    PoolOverride pool(threads);
    TwoPhasePacking alg{delta};
    return certificate_bytes(run_adversary(alg, delta));
  };
  const std::string serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(ParallelDeterminism, ValidatorDecisionsMatchSerial) {
  const int delta = 6;
  SeqColorPacking alg{delta};
  LowerBoundCertificate cert;
  {
    PoolOverride pool(1);
    cert = run_adversary(alg, delta);
  }
  std::vector<LevelValidation> serial, parallel;
  {
    PoolOverride pool(1);
    serial = validate_certificate(cert, alg, /*check_loopiness=*/true);
  }
  {
    PoolOverride pool(8);
    parallel = validate_certificate(cert, alg, /*check_loopiness=*/true);
  }
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].level, parallel[i].level);
    EXPECT_EQ(serial[i].degree_ok, parallel[i].degree_ok);
    EXPECT_EQ(serial[i].shape_ok, parallel[i].shape_ok);
    EXPECT_EQ(serial[i].loopy_ok, parallel[i].loopy_ok);
    EXPECT_EQ(serial[i].witness_loops_ok, parallel[i].witness_loops_ok);
    EXPECT_EQ(serial[i].balls_isomorphic, parallel[i].balls_isomorphic);
    EXPECT_EQ(serial[i].outputs_differ, parallel[i].outputs_differ);
    EXPECT_EQ(serial[i].weights_match_stored,
              parallel[i].weights_match_stored);
    EXPECT_TRUE(parallel[i].ok()) << "level " << i;
  }
}

TEST(ParallelDeterminism, ValidatorRejectsTamperedCertificateIdentically) {
  const int delta = 5;
  SeqColorPacking alg{delta};
  LowerBoundCertificate cert = run_adversary(alg, delta);
  // Corrupt one stored weight: both paths must flag the same level.
  cert.levels[1].g_weight += Rational(1);
  auto check = [&](int threads) {
    PoolOverride pool(threads);
    auto vs = validate_certificate(cert, alg, false);
    EXPECT_FALSE(vs[1].weights_match_stored) << "threads=" << threads;
    EXPECT_TRUE(vs[0].weights_match_stored) << "threads=" << threads;
    EXPECT_FALSE(certificate_is_valid(cert, alg, false));
  };
  check(1);
  check(8);
}

// Stateful impostor: make_node hands out a global serial number, which is
// both illegal (non-local information) and racy if run concurrently. Its
// parallel_safe() stays at the default false, so the validator keeps it on
// the serial loop; the adversary runs it on the calling thread and catches
// it identically with a big pool configured.
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
      std::map<Color, Rational> out;
      for (Color c : colors_) out[c] = Rational(0);
      if (!colors_.empty()) {
        Color pick =
            colors_[static_cast<std::size_t>(serial_) % colors_.size()];
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
  [[nodiscard]] std::string name() const override {
    return "CountingImpostor";
  }

 private:
  int serial_ = 0;
};

TEST(ParallelDeterminism, StatefulImpostorStillCaughtWithPoolConfigured) {
  PoolOverride pool(8);
  CountingImpostor alg;
  EXPECT_FALSE(alg.parallel_safe());
  EXPECT_THROW(run_adversary(alg, 5), Error);
}

// Broken algorithm that never saturates anything; the adversary must reject
// it at the base case on any thread count.
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
  // Stateless, so it opts in; its failing runs must surface the same way on
  // every pool width.
  [[nodiscard]] bool parallel_safe() const override { return true; }
};

TEST(ParallelDeterminism, NonSaturatingAlgorithmRejectedOnAnyThreadCount) {
  for (int threads : {1, 2, 8}) {
    PoolOverride pool(threads);
    AllZero alg;
    EXPECT_THROW(run_adversary(alg, 4), Error) << "threads=" << threads;
  }
}

// BudgetHooks only count and poll, so installing them keeps the
// byte-identity contract on every pool width.
TEST(ParallelDeterminism, BudgetHooksKeepCertificatesByteIdentical) {
  const int delta = 6;
  const std::string bare = run_and_serialize(delta, 1);
  for (int threads : {1, 2, 8}) {
    PoolOverride pool(threads);
    SeqColorPacking alg{delta};
    BudgetHooks hooks({.max_total_messages = 0, .deadline = {}});  // enforce, never trip
    AdversaryOptions opts;
    opts.hooks = &hooks;
    opts.verify_p2 = true;
    EXPECT_EQ(bare, certificate_bytes(run_adversary(alg, delta, opts)))
        << "threads=" << threads;
    EXPECT_GT(hooks.total_messages(), 0) << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, TrippedBudgetClassifiesIdenticallyAcrossThreads) {
  const int delta = 6;
  std::string serial_error;
  for (int threads : {1, 2, 8}) {
    PoolOverride pool(threads);
    SeqColorPacking alg{delta};
    // A 1-message cumulative cap trips inside the first adversary step's
    // GH run, whatever the pool width.
    BudgetHooks hooks({.max_total_messages = 1, .deadline = {}});
    AdversaryOptions opts;
    opts.hooks = &hooks;
    GuardedOutcome outcome = guarded_run_adversary(alg, delta, opts);
    EXPECT_EQ(outcome.status, RunStatus::kBudgetExceeded)
        << "threads=" << threads;
    EXPECT_FALSE(outcome.certificate.has_value());
    if (threads == 1) {
      serial_error = outcome.error;
      EXPECT_NE(serial_error.find("cumulative message budget"),
                std::string::npos);
    } else {
      EXPECT_EQ(outcome.error, serial_error) << "threads=" << threads;
    }
  }
}

TEST(ParallelDeterminism, BudgetHooksDeadlineCancelsRun) {
  PoolOverride pool(2);
  SeqColorPacking alg{8};
  BudgetHooks hooks({.max_total_messages = 0,
                     .deadline = Deadline::in(0.0)});  // already expired
  AdversaryOptions opts;
  opts.hooks = &hooks;
  GuardedOutcome outcome = guarded_run_adversary(alg, 8, opts);
  EXPECT_EQ(outcome.status, RunStatus::kCancelled);
}

// Records the thread of every make_node and evaluate_direct call.
class ThreadRecordingSeq : public SeqColorPacking {
 public:
  using SeqColorPacking::SeqColorPacking;

  std::unique_ptr<EcNodeState> make_node(const EcNodeContext& ctx) override {
    note();
    return SeqColorPacking::make_node(ctx);
  }
  [[nodiscard]] std::optional<EcDirectRun> evaluate_direct(
      const Multigraph& g) const override {
    note();
    return SeqColorPacking::evaluate_direct(g);
  }

  [[nodiscard]] std::set<std::thread::id> threads() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return threads_;
  }
  [[nodiscard]] long long calls() const {
    std::lock_guard<std::mutex> lk(mutex_);
    return calls_;
  }

 private:
  void note() const {
    std::lock_guard<std::mutex> lk(mutex_);
    threads_.insert(std::this_thread::get_id());
    ++calls_;
  }

  mutable std::mutex mutex_;
  mutable std::set<std::thread::id> threads_;
  mutable long long calls_ = 0;
};

// Every adversary step and every simulated run executes on the calling
// thread, whatever the pool width: the closed form (diagnostics off) and
// the interpreter (diagnostics on) alike. The pool serves per-level
// validation alone.
TEST(ParallelDeterminism, AdversaryRunsOnTheCallingThread) {
  PoolOverride pool(8);
  const int delta = 8;
  const std::set<std::thread::id> caller{std::this_thread::get_id()};
  for (bool interpreted : {false, true}) {
    const std::string mode = interpreted ? "interpreter" : "closed form";
    ThreadRecordingSeq alg{delta};
    RunDiagnostics diagnostics;
    AdversaryOptions opts;
    if (interpreted) opts.diagnostics = &diagnostics;
    EXPECT_EQ(run_adversary(alg, delta, opts).certified_radius(), delta - 2)
        << mode;
    EXPECT_GT(alg.calls(), 0) << mode;
    EXPECT_EQ(alg.threads(), caller)
        << mode << ": " << alg.threads().size() << " threads";
  }
}

}  // namespace
}  // namespace ldlb
