// Environment fault injection: hostile-filesystem and allocation-failure
// plans for the checkpoint/resume layer.
//
// fault/fault_plan.hpp attacks the *protocol* (crashes, drops,
// corruption); this file attacks the *environment* the library runs in.
// EnvFaultPlan implements util/atomic_file.hpp's FsFaultInjector seam and
// fails a chosen filesystem operation — the nth write, fsync, rename, or
// directory fsync — with EIO, ENOSPC, or a short write. Because every
// checkpoint path in the repo goes through write_file_atomic, arming a plan
// turns any adversary run into a crash-safety experiment: the env-fault
// tests and the chaos harness prove that after *any* injected fault the
// snapshot directory still loads to a valid prefix and the resumed run
// reproduces the clean run's certificate byte for byte.
//
// Allocation failure is injected separately through
// util/alloc_guard.hpp's thread-local byte budget (ScopedAllocBudget):
// charge sites in Rational's spill tier, in BigInt's limbs, in the (P1)
// ball walk (view/isomorphism) and in the refinement kernel
// (cover/refinement) throw std::bad_alloc once the budget is exhausted,
// which the guarded layer classifies as RunStatus::kEnvFault.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "ldlb/util/atomic_file.hpp"

namespace ldlb {

/// Which filesystem operation of util/atomic_file to fail. The first four
/// are the steps of write_file_atomic; kTruncate and kRead cover the
/// certificate log's repair and streaming-read paths (recover/cert_log).
enum class FsOp {
  kWrite,     ///< a write() of temp-file or appended content
  kFsync,     ///< fsync() of the temp or log file
  kRename,    ///< rename() over the destination
  kDirFsync,  ///< fsync() of the destination's parent directory
  kTruncate,  ///< truncate_file (the log's torn-tail repair)
  kRead,      ///< a read batch: read_file, or one scanned log record
};

/// How many FsOp members there are (sizes the observation counters).
inline constexpr int kFsOpCount = 6;

/// How the targeted operation fails.
enum class EnvFaultMode {
  kEio,         ///< the operation throws IoError with errno EIO
  kEnospc,      ///< the operation throws IoError with errno ENOSPC
  kShortWrite,  ///< (kWrite only) the write accepts half its bytes, and the
                ///< retry for the remainder throws IoError with ENOSPC
};

[[nodiscard]] const char* to_string(FsOp op);
[[nodiscard]] const char* to_string(EnvFaultMode mode);

/// Inverse of to_string, for drivers that accept fault plans on the
/// command line; returns false on an unknown token.
[[nodiscard]] bool fs_op_from_string(const std::string& token, FsOp& op);
[[nodiscard]] bool env_fault_mode_from_string(const std::string& token,
                                              EnvFaultMode& mode);

/// A one-shot environment fault: fail the `nth` occurrence (1-based) of one
/// filesystem operation in one configured mode. Counting is cumulative from
/// arm(); disarm() or a fresh arm() restarts it. All counters are atomic,
/// so a plan may stay installed while the thread pool is running.
class EnvFaultPlan : public FsFaultInjector {
 public:
  /// Arms the plan: the `nth` (1-based) occurrence of `op` after this call
  /// fails in `mode`. Resets all counters and the fired flag.
  void arm(FsOp op, EnvFaultMode mode, int nth = 1);

  /// Disarms without clearing observation counters.
  void disarm() { armed_.store(false, std::memory_order_release); }

  /// True once the armed fault has fired (it fires at most once per arm()).
  [[nodiscard]] bool fired() const {
    return fired_.load(std::memory_order_acquire);
  }

  /// How many times `op` was observed since the last arm().
  [[nodiscard]] long long observed(FsOp op) const;

  // FsFaultInjector interface.
  std::size_t before_write(const std::string& path, std::size_t size) override;
  void before_fsync(const std::string& path) override;
  void before_rename(const std::string& from, const std::string& to) override;
  void before_dir_fsync(const std::string& dir) override;
  void before_truncate(const std::string& path, std::uint64_t size) override;
  void before_read(const std::string& path) override;

 private:
  /// Returns true when this occurrence of `op` is the one that must fail.
  bool should_fire(FsOp op);
  [[noreturn]] void fail(FsOp op, const std::string& path, int code);

  // The injector must stay installable while the thread pool runs, so its
  // state is lock-free: flags are release/acquire monotonic latches and the
  // occurrence counters are fetch_add'd. Which concrete filesystem call
  // trips the fault may vary with schedule, but the *classification*
  // (RunStatus::kEnvFault) and the resumed certificate bytes never do —
  // env_fault_test pins that across the 9-point fault sweep.
  //
  // ldlb-lint: allow(raw-sync): lock-free arm/fire latch, see block comment.
  std::atomic<bool> armed_{false};
  // ldlb-lint: allow(raw-sync): lock-free arm/fire latch, see block comment.
  std::atomic<bool> fired_{false};
  /// Write call that must throw ENOSPC because its predecessor was the
  /// short-write half (kShortWrite spans two before_write calls).
  // ldlb-lint: allow(raw-sync): lock-free arm/fire latch, see block comment.
  std::atomic<bool> enospc_next_write_{false};
  FsOp op_ = FsOp::kWrite;
  EnvFaultMode mode_ = EnvFaultMode::kEio;
  long long nth_ = 1;
  // ldlb-lint: allow(raw-sync): monotonic observation counters, see above.
  std::atomic<long long> counts_[kFsOpCount] = {0, 0, 0,
                                                0, 0, 0};  // indexed by FsOp
};

/// Installs `plan` as the process-wide injector for its scope and removes
/// it on destruction (restoring the previous injector).
class ScopedFsFaultInjection {
 public:
  explicit ScopedFsFaultInjection(FsFaultInjector* plan)
      : previous_(fs_fault_injector()) {
    set_fs_fault_injector(plan);
  }
  ~ScopedFsFaultInjection() { set_fs_fault_injector(previous_); }

  ScopedFsFaultInjection(const ScopedFsFaultInjection&) = delete;
  ScopedFsFaultInjection& operator=(const ScopedFsFaultInjection&) = delete;

 private:
  FsFaultInjector* previous_;
};

}  // namespace ldlb
