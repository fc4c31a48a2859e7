// Cooperative cancellation end to end: the token itself, the thread pool's
// chunk-boundary polls, the guarded layer's kCancelled classification, and
// the headline latency contract — a cancel requested from another thread
// interrupts a Δ=10 adversary run within LDLB_CANCEL_LATENCY_MS (default
// 250 ms), leaves coherent partial diagnostics, and never tears the
// certificate log.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>

#include "ldlb/core/certificate_io.hpp"
#include "ldlb/fault/guarded_run.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/recover/resumable_adversary.hpp"
#include "ldlb/recover/cert_log.hpp"
#include "ldlb/util/cancellation.hpp"
#include "ldlb/util/thread_pool.hpp"

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

TEST(ThreadPoolCancel, ParallelForStopsOnPreCancelledToken) {
  ThreadPool pool(4);
  CancellationToken token;
  token.request_cancel("stop");
  EXPECT_THROW(
      pool.parallel_for(10000, [](std::size_t) {}, &token), Cancelled);
}

TEST(ThreadPoolCancel, ParallelForStopsMidLoop) {
  // The cancel fires from inside iteration 0; later chunks must observe it
  // at their boundary instead of running to completion.
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    CancellationToken token;
    std::atomic<int> executed{0};
    try {
      pool.parallel_for(
          1 << 16,
          [&](std::size_t) {
            executed.fetch_add(1, std::memory_order_relaxed);
            token.request_cancel("from inside");
          },
          &token);
      FAIL() << "expected Cancelled (threads=" << threads << ")";
    } catch (const Cancelled&) {
    }
    EXPECT_LT(executed.load(), 1 << 16) << "threads=" << threads;
  }
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

// The headline contract: cancelling a big (Δ=10) adversary run from another
// thread interrupts it within the latency budget, with a classified outcome
// and coherent partial diagnostics.
TEST(GuardedRun, CrossThreadCancelInterruptsDelta10Run) {
  SeqColorPacking alg{10};
  CancellationToken token;
  AdversaryOptions opts;
  opts.cancel = &token;
  RunDiagnostics diagnostics;
  opts.diagnostics = &diagnostics;

  GuardedOutcome outcome;
  Clock::time_point cancelled_at{};
  std::thread runner(
      [&] { outcome = guarded_run_adversary(alg, 10, opts); });
  // Let the run get properly under way before pulling the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  cancelled_at = Clock::now();
  token.request_cancel("cross-thread cancel");
  runner.join();
  const auto latency = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - cancelled_at);

  if (outcome.status == RunStatus::kOk) {
    // The whole Δ=10 chain finished inside 30 ms — nothing left to cancel.
    // That would be remarkable hardware; don't fail the latency claim on it.
    GTEST_SKIP() << "run completed before the cancel landed";
  }
  EXPECT_EQ(outcome.status, RunStatus::kCancelled);
  EXPECT_LT(latency.count(), latency_budget_ms());
  EXPECT_NE(outcome.error.find("cross-thread cancel"), std::string::npos);
  // Partial diagnostics of the run that was in flight, written on the
  // runner thread: after the join the per-node vectors agree and the
  // histogram belongs to a real run.
  EXPECT_EQ(diagnostics.halt_round.size(), diagnostics.crash_round.size());
  EXPECT_FALSE(diagnostics.halt_round.empty());
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

TEST(Supervisor, CancelledIsNeverTransient) {
  RetryPolicy policy;
  policy.retry_fault_injected = true;
  EXPECT_FALSE(policy.transient(RunStatus::kCancelled));
  EXPECT_FALSE(policy.transient(RunStatus::kCancelled, ENOSPC));
}

}  // namespace
}  // namespace ldlb
