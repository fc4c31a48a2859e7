// Crash-safe adversary runs: checkpoint every certified level, resume from
// the longest trusted prefix.
//
// run_adversary_resumable is run_adversary (core/adversary.hpp) wrapped in
// durability and supervision:
//
//   * after each CertificateLevel is certified it is checkpointed into the
//     CheckpointStore — durably, so a crash mid-checkpoint never damages
//     the previously stored prefix (atomic rewrite for the snapshot store,
//     append + fsync with torn-tail recovery for the certificate log);
//   * on start, the store's longest valid prefix is loaded and — unless
//     explicitly disabled — *re-validated against the algorithm* with the
//     independent certificate validator, so a stale or tampered snapshot
//     (wrong algorithm, wrong Δ, forged weights) is discarded instead of
//     being trusted into the chain; construction continues from the first
//     missing level;
//   * each level build runs under the RetryPolicy of recover/supervisor.hpp:
//     a BudgetExceeded trip retries with an escalated round budget, while
//     ModelViolation / ContractViolation fail fast; every attempt lands in
//     the SupervisionLog of the ResumeInfo.
//
// The construction is deterministic and the certificate text format is an
// exact round-trip, so a run resumed from any level produces a final
// certificate byte-identical to an uninterrupted run — the crash-resume
// tests assert exactly that, with crashes injected via `crash_at_level`.
#pragma once

#include <functional>
#include <string>

#include "ldlb/core/adversary.hpp"
#include "ldlb/recover/checkpoint.hpp"
#include "ldlb/recover/supervisor.hpp"

namespace ldlb {

/// Options for a resumable run.
struct ResumeOptions {
  AdversaryOptions adversary;  ///< forwarded to every adversary step
  RetryPolicy retry;           ///< per-level supervision (budget escalation)
  /// Re-validate the loaded prefix against the algorithm, (P2) included,
  /// before trusting it; levels from the first invalid one onward are
  /// recomputed.
  bool revalidate = true;
  /// Called after each freshly certified level is durably checkpointed.
  /// Throwing from here models a crash right after the checkpoint — see
  /// crash_at_level.
  std::function<void(const CertificateLevel&)> on_checkpoint;
};

/// What a resumable run found, salvaged and recomputed.
struct ResumeInfo {
  RecoveryReport recovery;   ///< what the store itself salvaged
  int loaded_levels = 0;     ///< levels the store handed back
  int trusted_levels = 0;    ///< levels that survived re-validation
  int computed_levels = 0;   ///< levels built (or rebuilt) this run
  std::string discard_reason;  ///< why loaded levels were rejected ("" if
                               ///< none were)
  SupervisionLog supervision;  ///< every level-build attempt this run
};

/// Runs the full adversary against `algorithm` at maximum degree `delta`,
/// checkpointing into (and resuming from) `store`. Returns the complete
/// chain of levels 0..delta-2, exactly as run_adversary would.
LowerBoundCertificate run_adversary_resumable(EcAlgorithm& algorithm,
                                              int delta, CheckpointStore& store,
                                              const ResumeOptions& options = {},
                                              ResumeInfo* info = nullptr);

/// Checkpoint hook that throws FaultInjected (fault class "crash-stop")
/// right after level `level` is durably stored — the fault layer's way of
/// simulating a process crash for the kill-and-resume tests and demos.
[[nodiscard]] std::function<void(const CertificateLevel&)> crash_at_level(
    int level);

}  // namespace ldlb
