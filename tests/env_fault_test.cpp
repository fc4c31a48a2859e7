// Environment fault injection round-trips: every filesystem fault point of
// the certificate log's checkpoints (write / fsync / rename / dir-fsync ×
// EIO / ENOSPC / short-write, at occurrences 1–4), injected into a
// checkpointed adversary run, must surface as IoError and leave a log that
// loads a clean prefix and whose resumed run reproduces the clean
// certificate byte for byte. Allocation-failure injection (util/alloc_guard)
// must classify as kEnvFault and leave the library reusable afterwards.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ldlb/core/certificate_io.hpp"
#include "ldlb/fault/env_fault.hpp"
#include "ldlb/fault/guarded_run.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/recover/cert_log.hpp"
#include "ldlb/recover/resumable_adversary.hpp"
#include "ldlb/util/alloc_guard.hpp"
#include "ldlb/util/atomic_file.hpp"
#include "ldlb/util/bigint.hpp"
#include "ldlb/util/error.hpp"
#include "ldlb/util/rational.hpp"

namespace ldlb {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

std::string certificate_bytes(const LowerBoundCertificate& cert) {
  std::ostringstream os;
  write_certificate(os, cert);
  return os.str();
}

// Temp files write_file_atomic left beside `path` ("<path>.tmp.XXXXXX").
// Only the target's own count: other test binaries run in parallel and
// write through the same temp directory.
int tmp_files_for(const std::string& path) {
  const std::string prefix = path + ".tmp.";
  int n = 0;
  for (const auto& entry :
       fs::directory_iterator(fs::path(path).parent_path())) {
    if (entry.path().string().rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

TEST(EnvFaultPlan, FailsExactlyTheArmedOperation) {
  const std::string path = temp_path("plan_basics.txt");
  EnvFaultPlan plan;
  ScopedFsFaultInjection install(&plan);

  plan.arm(FsOp::kWrite, EnvFaultMode::kEio, 1);
  try {
    write_file_atomic(path, "payload");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error_code(), EIO);
    EXPECT_NE(std::string(e.what()).find("injected env fault"),
              std::string::npos);
  }
  EXPECT_TRUE(plan.fired());
  EXPECT_FALSE(fs::exists(path));  // failed before the rename

  // One-shot: the same plan does not fire twice without re-arming.
  write_file_atomic(path, "payload");
  EXPECT_EQ(read_file(path), "payload");
  fs::remove(path);
}

TEST(EnvFaultPlan, ShortWriteAcceptsHalfThenFailsWithEnospc) {
  const std::string path = temp_path("short_write.txt");
  EnvFaultPlan plan;
  ScopedFsFaultInjection install(&plan);
  plan.arm(FsOp::kWrite, EnvFaultMode::kShortWrite, 1);
  try {
    write_file_atomic(path, std::string(4096, 'x'));
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error_code(), ENOSPC);
  }
  // The first call accepted half, the retry failed: two write observations.
  EXPECT_EQ(plan.observed(FsOp::kWrite), 2);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_EQ(tmp_files_for(path), 0) << "torn temp file left";
}

TEST(EnvFaultPlan, DirFsyncFaultLeavesContentInPlace) {
  const std::string path = temp_path("dir_fsync.txt");
  EnvFaultPlan plan;
  ScopedFsFaultInjection install(&plan);
  plan.arm(FsOp::kDirFsync, EnvFaultMode::kEio, 1);
  EXPECT_THROW(write_file_atomic(path, "survives"), IoError);
  // The rename already happened; only durability is unconfirmed.
  EXPECT_TRUE(fs::exists(path));
  EXPECT_EQ(read_file(path), "survives");
  fs::remove(path);
}

std::string level_text(const CertificateLevel& lv) {
  std::string out;
  append_certificate_level(out, lv);
  return out;
}

// What a fault left behind must load as a clean prefix of `chain`: a torn
// tail is salvaged and reported, mid-file damage never appears.
void expect_loads_a_clean_prefix(const std::string& path,
                                 const LowerBoundCertificate& chain) {
  CertificateLog log(path);
  const CertLogReport scan = log.scan();
  EXPECT_TRUE(scan.damage == LogDamage::kNone ||
              scan.damage == LogDamage::kTornTail)
      << scan.to_string();
  RecoveryReport report;
  const LowerBoundCertificate loaded = log.load(&report);
  if (scan.damage == LogDamage::kTornTail) {
    EXPECT_FALSE(report.complete) << report.to_string();
    EXPECT_NE(report.drop_reason.find(to_string(LogDamage::kTornTail)),
              std::string::npos)
        << report.to_string();
  }
  ASSERT_LE(loaded.levels.size(), chain.levels.size());
  for (std::size_t i = 0; i < loaded.levels.size(); ++i) {
    EXPECT_EQ(level_text(loaded.levels[i]), level_text(chain.levels[i]))
        << "level " << i;
  }
}

// Resumes the log at `path` with no fault armed: the clean run's bytes, and
// a file equal to a never-faulted log of the same chain.
void expect_clean_resume(const std::string& path, int delta,
                         const std::string& clean) {
  SeqColorPacking alg{delta};
  CertificateLog log(path);
  const LowerBoundCertificate resumed =
      run_adversary_resumable(alg, delta, log, {});
  EXPECT_EQ(certificate_bytes(resumed), clean);
  EXPECT_EQ(read_file(path), CertificateLog::serialize(resumed));
}

// The acceptance sweep: inject each (operation, mode) pair into the nth
// (1–4) occurrence of that operation during a resumable adversary run that
// checkpoints into the certificate log, then resume with the fault cleared.
// The first checkpoint creates the log by one atomic rewrite (one write,
// fsync, rename and dir-fsync); each later one appends a record (one write
// and one fsync), so write and fsync occurrence n belong to checkpoint n,
// and rename / dir-fsync fire only at occurrence 1.
TEST(EnvFaultSweep, CheckpointedRunSurvivesEveryFaultPoint) {
  const int delta = 5;
  LowerBoundCertificate chain;
  {
    SeqColorPacking alg{delta};
    chain = run_adversary(alg, delta);
  }
  const std::string clean = certificate_bytes(chain);

  int fired = 0;
  for (const FsOp op :
       {FsOp::kWrite, FsOp::kFsync, FsOp::kRename, FsOp::kDirFsync}) {
    for (const EnvFaultMode mode :
         {EnvFaultMode::kEio, EnvFaultMode::kEnospc,
          EnvFaultMode::kShortWrite}) {
      for (int nth = 1; nth <= 4; ++nth) {
        SCOPED_TRACE(std::string(to_string(op)) + "/" + to_string(mode) +
                     " #" + std::to_string(nth));
        const std::string path =
            temp_path(std::string("sweep_") + to_string(op) + "_" +
                      to_string(mode) + "_" + std::to_string(nth) + ".ldcl");
        fs::remove(path);
        {
          EnvFaultPlan plan;
          ScopedFsFaultInjection install(&plan);
          plan.arm(op, mode, nth);
          SeqColorPacking alg{delta};
          CertificateLog log(path);
          // A failed checkpoint is never retried: the IoError surfaces.
          bool threw = false;
          try {
            (void)run_adversary_resumable(alg, delta, log, {});
          } catch (const IoError&) {
            threw = true;
          }
          EXPECT_EQ(threw, plan.fired());
          if (plan.fired()) ++fired;
        }
        expect_loads_a_clean_prefix(path, chain);
        expect_clean_resume(path, delta, clean);
        fs::remove(path);
      }
    }
  }
  // Every write and fsync point fires (Δ=5 takes four checkpoints), and
  // rename and dir-fsync fire at their one occurrence.
  EXPECT_EQ(fired, 3 * 4 + 3 * 4 + 3 + 3);
}

// The repair path the plain sweep cannot reach: a short write tears an
// append, the resume's torn-tail truncation then fails too, and a clean
// resume still repairs the log to the never-faulted bytes.
TEST(EnvFaultSweep, TornTailRepairSurvivesAFailedTruncate) {
  const int delta = 5;
  LowerBoundCertificate chain;
  {
    SeqColorPacking alg{delta};
    chain = run_adversary(alg, delta);
  }
  const std::string path = temp_path("sweep_torn_truncate.ldcl");
  fs::remove(path);
  EnvFaultPlan plan;
  ScopedFsFaultInjection install(&plan);

  // Write occurrence 2 is the first append (level 1).
  plan.arm(FsOp::kWrite, EnvFaultMode::kShortWrite, 2);
  {
    SeqColorPacking alg{delta};
    CertificateLog log(path);
    EXPECT_THROW((void)run_adversary_resumable(alg, delta, log, {}), IoError);
  }
  EXPECT_TRUE(plan.fired());
  EXPECT_EQ(CertificateLog(path).scan().damage, LogDamage::kTornTail);

  plan.arm(FsOp::kTruncate, EnvFaultMode::kEio, 1);
  {
    SeqColorPacking alg{delta};
    CertificateLog log(path);
    EXPECT_THROW((void)run_adversary_resumable(alg, delta, log, {}), IoError);
  }
  EXPECT_TRUE(plan.fired());
  plan.disarm();
  expect_loads_a_clean_prefix(path, chain);
  EXPECT_EQ(CertificateLog(path).scan().damage, LogDamage::kTornTail);

  expect_clean_resume(path, delta, certificate_bytes(chain));
  fs::remove(path);
}

TEST(AllocGuard, BudgetExhaustionThrowsBadAlloc) {
  EXPECT_FALSE(ScopedAllocBudget::active());
  charge_alloc(1 << 30);  // no budget armed: free
  {
    ScopedAllocBudget budget(64);
    EXPECT_TRUE(ScopedAllocBudget::active());
    charge_alloc(32);
    EXPECT_THROW(charge_alloc(64), std::bad_alloc);
    // Pinned at zero: every further charge keeps failing.
    EXPECT_THROW(charge_alloc(1), std::bad_alloc);
  }
  EXPECT_FALSE(ScopedAllocBudget::active());
}

TEST(AllocGuard, StarvesBigIntLimbGrowth) {
  BigInt big = BigInt::pow2(200);  // needs > 2 limbs
  ScopedAllocBudget budget(0);
  EXPECT_THROW((void)(big * big), std::bad_alloc);
}

TEST(AllocGuard, StarvesRationalSpill) {
  const Rational tiny{1, INT64_MAX};
  const Rational third{1, 3};
  // 1 / (3·2^62) needs a 64-bit denominator: BigInt keeps it inline, so
  // the only allocation, and the only charge, is Rational's spill.
  const Rational edge{1, std::int64_t{1} << 62};
  const Rational spill = edge * third;
  {
    ScopedAllocBudget budget(0);
    EXPECT_THROW((void)(tiny * third), std::bad_alloc);
    EXPECT_THROW((void)(edge * third), std::bad_alloc);
    EXPECT_THROW((void)Rational(spill), std::bad_alloc);  // copies charge too
    // Word-tier arithmetic never allocates, so it never charges.
    EXPECT_EQ((third * third + Rational(1, 2)) / Rational(3),
              Rational(11, 54));
    EXPECT_EQ(tiny * Rational(2), Rational(2, INT64_MAX));
  }
  EXPECT_EQ(edge * third, spill);  // usable again once the budget is gone
}

TEST(AllocGuard, AdversaryRunClassifiesAsEnvFault) {
  SeqColorPacking alg{5};
  GuardedOutcome outcome;
  {
    // A zero budget makes the first charge throw. Every level's (P1) walk
    // (view/isomorphism) charges its scratch, so the run cannot finish,
    // whatever size that scratch has.
    ScopedAllocBudget budget(0);
    outcome = guarded_run_adversary(alg, 5);
  }
  EXPECT_EQ(outcome.status, RunStatus::kEnvFault);
  EXPECT_EQ(outcome.env_errno, 0);  // bad_alloc carries no errno
  EXPECT_FALSE(outcome.certificate.has_value());

  // The library is fully usable once the budget is gone.
  GuardedOutcome retry = guarded_run_adversary(alg, 5);
  EXPECT_EQ(retry.status, RunStatus::kOk);
  EXPECT_TRUE(retry.certificate.has_value());
}

}  // namespace
}  // namespace ldlb
