// Kill-and-resume determinism: an adversary run crash-stopped at any level
// k and resumed from the certificate log must produce a final certificate
// byte-identical to an uninterrupted run, and anything untrustworthy in the
// log (tampering, wrong algorithm, truncation) must be discarded — never
// trusted into the chain.
#include "ldlb/recover/resumable_adversary.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "ldlb/core/certificate_io.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/matching/two_phase_packing.hpp"
#include "ldlb/recover/cert_log.hpp"
#include "ldlb/util/atomic_file.hpp"
#include "ldlb/util/error.hpp"

namespace ldlb {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::string reference_text(int delta) {
  SeqColorPacking alg{delta};
  return certificate_to_string(run_adversary(alg, delta));
}

TEST(CrashResume, ResumedChainIsByteIdenticalForEveryCrashLevel) {
  for (int delta = 4; delta <= 7; ++delta) {
    const std::string reference = reference_text(delta);
    for (int k = 0; k <= delta - 2; ++k) {
      CertificateLog store{temp_path("crash_resume.ldcl")};
      store.remove();

      // Phase 1: the run dies right after checkpointing level k.
      {
        SeqColorPacking alg{delta};
        ResumeOptions options;
        options.on_checkpoint = crash_at_level(k);
        EXPECT_THROW(run_adversary_resumable(alg, delta, store, options),
                     FaultInjected)
            << "delta=" << delta << " k=" << k;
      }
      // The log survived the crash with exactly levels 0..k.
      {
        RecoveryReport report;
        LowerBoundCertificate stored = store.load(&report);
        EXPECT_TRUE(report.complete);
        EXPECT_EQ(static_cast<int>(stored.levels.size()), k + 1);
      }

      // Phase 2: resume and finish.
      SeqColorPacking alg{delta};
      ResumeInfo info;
      LowerBoundCertificate resumed =
          run_adversary_resumable(alg, delta, store, {}, &info);
      EXPECT_EQ(certificate_to_string(resumed), reference)
          << "delta=" << delta << " k=" << k;
      EXPECT_EQ(info.loaded_levels, k + 1);
      EXPECT_EQ(info.trusted_levels, k + 1);
      EXPECT_EQ(info.computed_levels, delta - 2 - k);
      EXPECT_EQ(info.discard_reason, "");
      store.remove();
    }
  }
}

TEST(CrashResume, FreshRunNeedsNoLog) {
  const int delta = 5;
  CertificateLog store{temp_path("fresh.ldcl")};
  store.remove();
  SeqColorPacking alg{delta};
  ResumeInfo info;
  LowerBoundCertificate cert =
      run_adversary_resumable(alg, delta, store, {}, &info);
  EXPECT_EQ(certificate_to_string(cert), reference_text(delta));
  EXPECT_FALSE(info.recovery.file_found);
  EXPECT_EQ(info.loaded_levels, 0);
  EXPECT_EQ(info.computed_levels, delta - 1);  // levels 0..delta-2
  // The completed chain is durable too.
  EXPECT_EQ(store.load().levels.size(), static_cast<std::size_t>(delta - 1));
  store.remove();
}

TEST(CrashResume, TruncatedLogResumesFromLongestValidPrefix) {
  const int delta = 5;
  const std::string reference = reference_text(delta);
  CertificateLog store{temp_path("truncated.ldcl")};
  store.remove();
  {
    SeqColorPacking alg{delta};
    ResumeOptions options;
    options.on_checkpoint = crash_at_level(2);
    EXPECT_THROW(run_adversary_resumable(alg, delta, store, options),
                 FaultInjected);
  }
  // Damage the file the way a torn write would: cut it mid-record.
  std::string bytes = read_file(store.path());
  write_file_atomic(store.path(), bytes.substr(0, bytes.size() - 20));

  SeqColorPacking alg{delta};
  ResumeInfo info;
  LowerBoundCertificate resumed =
      run_adversary_resumable(alg, delta, store, {}, &info);
  EXPECT_EQ(certificate_to_string(resumed), reference);
  EXPECT_TRUE(info.recovery.file_found);
  EXPECT_FALSE(info.recovery.complete);
  EXPECT_LT(info.loaded_levels, 3);
  EXPECT_GT(info.computed_levels, delta - 2 - 2);
  store.remove();
}

TEST(CrashResume, TamperedLevelIsDiscardedByRevalidation) {
  const int delta = 5;
  const std::string reference = reference_text(delta);
  CertificateLog store{temp_path("tampered.ldcl")};
  store.remove();
  {
    SeqColorPacking alg{delta};
    ResumeOptions options;
    options.on_checkpoint = crash_at_level(2);
    EXPECT_THROW(run_adversary_resumable(alg, delta, store, options),
                 FaultInjected);
  }
  // Forge level 1 and re-serialize: checksums recompute, so only semantic
  // re-validation can catch it.
  LowerBoundCertificate stored = store.load();
  ASSERT_EQ(stored.levels.size(), 3u);
  stored.levels[1].g_weight = stored.levels[1].g_weight + Rational(1, 7);
  write_file_atomic(store.path(), CertificateLog::serialize(stored));

  SeqColorPacking alg{delta};
  ResumeInfo info;
  LowerBoundCertificate resumed =
      run_adversary_resumable(alg, delta, store, {}, &info);
  EXPECT_EQ(certificate_to_string(resumed), reference);
  EXPECT_EQ(info.loaded_levels, 3);
  EXPECT_EQ(info.trusted_levels, 1);  // level 0 intact, 1..2 rebuilt
  EXPECT_NE(info.discard_reason.find("failed re-validation"),
            std::string::npos);
  store.remove();
}

TEST(CrashResume, LogForDifferentJobIsDiscardedWholesale) {
  const int delta = 4;
  CertificateLog store{temp_path("wrong_job.ldcl")};
  store.remove();
  {
    // A complete delta-4 chain from a different algorithm.
    TwoPhasePacking other{delta};
    run_adversary_resumable(other, delta, store);
  }
  SeqColorPacking alg{delta};
  ResumeInfo info;
  LowerBoundCertificate cert =
      run_adversary_resumable(alg, delta, store, {}, &info);
  EXPECT_EQ(certificate_to_string(cert), reference_text(delta));
  EXPECT_GT(info.loaded_levels, 0);
  EXPECT_EQ(info.trusted_levels, 0);
  EXPECT_NE(info.discard_reason.find("stored chain is for"), std::string::npos);
  store.remove();
}

TEST(CrashResume, CheckpointHookSeesOnlyFreshLevels) {
  const int delta = 5;
  CertificateLog store{temp_path("hook.ldcl")};
  store.remove();
  {
    SeqColorPacking alg{delta};
    ResumeOptions options;
    options.on_checkpoint = crash_at_level(1);
    EXPECT_THROW(run_adversary_resumable(alg, delta, store, options),
                 FaultInjected);
  }
  SeqColorPacking alg{delta};
  ResumeOptions options;
  std::vector<int> seen;
  options.on_checkpoint = [&](const CertificateLevel& lv) {
    seen.push_back(lv.level);
  };
  run_adversary_resumable(alg, delta, store, options);
  EXPECT_EQ(seen, (std::vector<int>{2, 3}));  // 0..1 came from the store
  store.remove();
}

// A level build is never retried: a round budget the subject outgrows
// fails the resumable run exactly where and how it fails run_adversary, so
// neither certifies a run the validator's re-run would reject.
TEST(CrashResume, RoundBudgetTripFailsLikeRunAdversary) {
  const int delta = 4;
  AdversaryOptions adversary;
  adversary.max_rounds = 1;  // SeqColorPacking needs more on the base case
  std::string expected;
  {
    SeqColorPacking alg{delta};
    try {
      (void)run_adversary(alg, delta, adversary);
      FAIL() << "run_adversary certified under a 1-round budget";
    } catch (const BudgetExceeded& e) {
      expected = e.what();
    }
  }

  CertificateLog store{temp_path("budget_trip.ldcl")};
  store.remove();
  SeqColorPacking alg{delta};
  ResumeOptions options;
  options.adversary = adversary;
  ResumeInfo info;
  try {
    (void)run_adversary_resumable(alg, delta, store, options, &info);
    FAIL() << "run_adversary_resumable certified under a 1-round budget";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
  EXPECT_EQ(info.computed_levels, 0);
  store.remove();
}

}  // namespace
}  // namespace ldlb
