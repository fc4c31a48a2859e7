// Cooperative cancellation end to end: the token itself, the guarded
// layer's kCancelled classification, and the headline latency contract — a
// cancel requested from another thread interrupts a Δ=10 adversary run
// within LDLB_CANCEL_LATENCY_MS (default 250 ms), leaves coherent partial
// diagnostics, and never tears the certificate log.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "ldlb/core/certificate_io.hpp"
#include "ldlb/fault/guarded_run.hpp"
#include "ldlb/local/hooks.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/recover/resumable_adversary.hpp"
#include "ldlb/recover/cert_log.hpp"
#include "ldlb/util/cancellation.hpp"

namespace ldlb {
namespace {

using Clock = std::chrono::steady_clock;

int latency_budget_ms() {
  if (const char* s = std::getenv("LDLB_CANCEL_LATENCY_MS");
      s != nullptr && *s != '\0') {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return 250;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

TEST(CancellationToken, StartsClean) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), "");
  EXPECT_NO_THROW(token.check());
  EXPECT_FALSE(token.deadline().is_set());
}

TEST(CancellationToken, FirstReasonWins) {
  CancellationToken token;
  token.request_cancel("operator abort");
  token.request_cancel("too late");
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), "operator abort");
  try {
    token.check();
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& e) {
    EXPECT_EQ(e.reason(), "operator abort");
    EXPECT_NE(std::string(e.what()).find("operator abort"),
              std::string::npos);
  }
}

TEST(CancellationToken, DeadlineExpiryCancels) {
  CancellationToken token{Deadline::in(0.0)};
  EXPECT_TRUE(token.cancelled());
  EXPECT_THROW(token.check(), Cancelled);
  EXPECT_NE(token.reason().find("deadline"), std::string::npos);
}

TEST(CancellationToken, UnexpiredDeadlineDoesNotCancel) {
  CancellationToken token{Deadline::in(3600.0)};
  EXPECT_FALSE(token.cancelled());
  EXPECT_GT(token.deadline().remaining_seconds(), 3000.0);
}

TEST(GuardedRun, PreCancelledAdversaryClassifiesAsCancelled) {
  SeqColorPacking alg{5};
  CancellationToken token;
  token.request_cancel("never started");
  AdversaryOptions opts;
  opts.cancel = &token;
  GuardedOutcome outcome = guarded_run_adversary(alg, 5, opts);
  EXPECT_EQ(outcome.status, RunStatus::kCancelled);
  EXPECT_EQ(outcome.classification(), "cancelled");
  EXPECT_FALSE(outcome.certificate.has_value());
  EXPECT_NE(outcome.error.find("never started"), std::string::npos);
  EXPECT_EQ(outcome.diagnostics.first_violation, outcome.error);
}

// Holds a run at its first node numbered `node` or higher until the
// cancelling thread has requested the cancel, so the cancel lands mid-run
// on every machine, however fast the chain is.
class CancelHandoff : public RunHooks {
 public:
  explicit CancelHandoff(NodeId node) : node_(node) {}

  bool node_crashed(NodeId node, int /*round*/) override {
    if (node < node_ || handed_off_) return false;
    handed_off_ = true;
    std::unique_lock<std::mutex> lock(mutex_);
    reached_ = true;
    wake_.notify_all();
    wake_.wait(lock, [this] { return released_; });
    return false;
  }

  /// Waits until the run is held or has ended; true if it is held.
  bool wait_until_held() {
    std::unique_lock<std::mutex> lock(mutex_);
    wake_.wait(lock, [this] { return reached_ || finished_; });
    return reached_;
  }
  void release() { set(released_); }
  void finish() { set(finished_); }

 private:
  void set(bool& flag) {
    const std::lock_guard<std::mutex> lock(mutex_);
    flag = true;
    wake_.notify_all();
  }

  NodeId node_;
  bool handed_off_ = false;  // runner thread only
  std::mutex mutex_;
  std::condition_variable wake_;
  bool reached_ = false;   // ldlb: guarded_by(mutex_)
  bool released_ = false;  // ldlb: guarded_by(mutex_)
  bool finished_ = false;  // ldlb: guarded_by(mutex_)
};

// The headline contract: cancelling a big (Δ=10) adversary run from another
// thread interrupts it within the latency budget, with a classified outcome
// and coherent partial diagnostics. Level i's graphs have 2^i nodes, so
// the first run on more than four nodes is the mix GH that builds level 3:
// the hook holds the run there until the cancel is requested.
TEST(GuardedRun, CrossThreadCancelInterruptsDelta10Run) {
  SeqColorPacking alg{10};
  CancellationToken token;
  CancelHandoff handoff{4};
  AdversaryOptions opts;
  opts.cancel = &token;
  opts.hooks = &handoff;
  RunDiagnostics diagnostics;
  opts.diagnostics = &diagnostics;

  GuardedOutcome outcome;
  std::thread runner([&] {
    outcome = guarded_run_adversary(alg, 10, opts);
    handoff.finish();
  });
  const bool held = handoff.wait_until_held();
  const Clock::time_point cancelled_at = Clock::now();
  token.request_cancel("cross-thread cancel");
  handoff.release();
  runner.join();
  const auto latency = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - cancelled_at);

  ASSERT_TRUE(held) << "the chain ended before building level 3";
  EXPECT_EQ(outcome.status, RunStatus::kCancelled);
  EXPECT_LT(latency.count(), latency_budget_ms());
  EXPECT_NE(outcome.error.find("cross-thread cancel"), std::string::npos);
  // Partial diagnostics of the run that was in flight, written on the
  // runner thread: after the join the per-node vectors agree and belong to
  // level 3's eight-node mix.
  EXPECT_EQ(diagnostics.halt_round.size(), diagnostics.crash_round.size());
  EXPECT_EQ(diagnostics.halt_round.size(), 8u);
}

TEST(Cancellation, ResumableRunLeavesLoadableLogAndResumesIdentically) {
  const int delta = 7;
  const std::string path = temp_path("cancel_resume.ldcl");
  std::filesystem::remove(path);

  // Clean reference certificate.
  std::string clean;
  {
    SeqColorPacking alg{delta};
    std::ostringstream os;
    write_certificate(os, run_adversary(alg, delta));
    clean = os.str();
  }

  // Cancel a resumable run from another thread, mid-chain.
  {
    SeqColorPacking alg{delta};
    CertificateLog store(path);
    CancellationToken token;
    ResumeOptions options;
    options.adversary.cancel = &token;
    // Cancel as soon as the first level is durably checkpointed, from a
    // different thread, while the run is between levels.
    std::thread canceller;
    options.on_checkpoint = [&](const CertificateLevel& lv) {
      if (lv.level == 1 && !canceller.joinable()) {
        canceller = std::thread(
            [&token] { token.request_cancel("mid-chain cancel"); });
      }
    };
    EXPECT_THROW(run_adversary_resumable(alg, delta, store, options),
                 Cancelled);
    if (canceller.joinable()) canceller.join();

    // Whatever was checkpointed must load back as a fully valid prefix —
    // cancellation must never tear the log file.
    RecoveryReport report;
    LowerBoundCertificate partial = store.load(&report);
    EXPECT_TRUE(report.file_found);
    EXPECT_TRUE(report.complete) << report.to_string();
    EXPECT_GE(partial.levels.size(), 1u);
    EXPECT_LT(partial.levels.size(),
              static_cast<std::size_t>(delta - 1));
  }

  // Resuming with a fresh token completes to the clean run's exact bytes.
  {
    SeqColorPacking alg{delta};
    CertificateLog store(path);
    ResumeInfo info;
    LowerBoundCertificate resumed =
        run_adversary_resumable(alg, delta, store, {}, &info);
    EXPECT_GT(info.trusted_levels, 0);
    std::ostringstream os;
    write_certificate(os, resumed);
    EXPECT_EQ(os.str(), clean);
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ldlb
