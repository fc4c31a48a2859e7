// Crash-safe adversary runs: checkpoint every certified level, resume from
// the longest trusted prefix.
//
// run_adversary_resumable is run_adversary (core/adversary.hpp) wrapped in
// durability:
//
//   * after each CertificateLevel is certified it is checkpointed into the
//     CertificateLog (recover/cert_log.hpp) — append + fsync, with
//     torn-tail recovery, so a crash mid-checkpoint never damages the
//     previously stored prefix;
//   * on start, the log's longest valid prefix is loaded and — unless
//     explicitly disabled — *re-validated against the algorithm* with the
//     independent certificate validator, so a stale or tampered log (wrong
//     algorithm, wrong Δ, forged weights) is discarded instead of being
//     trusted into the chain; construction continues from the first
//     missing level;
//   * each level is built once, under run_adversary's round budget
//     (adversary_round_budget): a level build is never retried, so a run
//     fails where and how run_adversary fails. Under the default budget,
//     which is the validator's own, no run certifies what the validator's
//     re-run of the algorithm would reject.
//
// That loop is written once, in resume_chain. run_adversary_resumable runs
// it with in-process steps; the fleet (fault/fleet.hpp) runs the same loop
// with steps and re-validation executed by worker processes, so a resume
// reports the same ResumeInfo whichever executor ran it.
//
// The construction is deterministic and the certificate text format is an
// exact round-trip, so a run resumed from any level produces a final
// certificate byte-identical to an uninterrupted run — the crash-resume
// tests assert exactly that, with crashes injected via `crash_at_level`.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "ldlb/core/adversary.hpp"
#include "ldlb/recover/cert_log.hpp"

namespace ldlb {

/// Options for a resumable run.
struct ResumeOptions {
  AdversaryOptions adversary;  ///< forwarded to every adversary step
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
  RecoveryReport recovery;   ///< what the log itself salvaged
  int loaded_levels = 0;     ///< levels the log handed back
  int trusted_levels = 0;    ///< levels that survived re-validation
  int computed_levels = 0;   ///< levels built (or rebuilt) this run
  std::string discard_reason;  ///< why loaded levels were rejected ("" if
                               ///< none were)
};

/// Runs the full adversary against `algorithm` at maximum degree `delta`,
/// checkpointing into (and resuming from) `log`. Returns the complete
/// chain of levels 0..delta-2, exactly as run_adversary would.
LowerBoundCertificate run_adversary_resumable(EcAlgorithm& algorithm,
                                              int delta, CertificateLog& log,
                                              const ResumeOptions& options = {},
                                              ResumeInfo* info = nullptr);

/// Where a resumable run's simulations execute: the two pieces of the loop
/// that differ between the in-process engine and the fleet.
struct ChainExecutor {
  /// How many leading levels of the loaded `chain` re-validate against the
  /// algorithm, (P2) included.
  std::function<std::size_t(const LowerBoundCertificate& chain)> revalidate;
  /// Builds level prev.level + 1, granting each simulation
  /// adversary_round_budget rounds.
  std::function<CertificateLevel(const CertificateLevel& prev)> step;
};

/// The resumable loop itself: load `log` → discard a chain for another job
/// → re-validate through `executor` → build the base case with `algorithm`
/// → build each missing level through `executor.step` → checkpoint. Fills
/// `info` as it goes, so it is accurate on a throw too.
LowerBoundCertificate resume_chain(EcAlgorithm& algorithm, int delta,
                                   CertificateLog& log,
                                   const ResumeOptions& options,
                                   const ChainExecutor& executor,
                                   ResumeInfo& info);

/// Checkpoint hook that throws FaultInjected (fault class "crash-stop")
/// right after level `level` is durably stored — the fault layer's way of
/// simulating a process crash for the kill-and-resume tests and demos.
[[nodiscard]] std::function<void(const CertificateLevel&)> crash_at_level(
    int level);

}  // namespace ldlb
