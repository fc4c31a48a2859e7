// Crash-tolerant multi-process adversary fleet.
//
// run_adversary_fleet is the adversary chain (core/adversary.hpp) executed
// coordinator/worker style: the coordinator owns the chain, the certificate
// log and every decision; N forked worker processes (util/ipc.hpp) run the
// simulations — each step's mix GH, then the one unfolding (GG or HH) its
// mix-edge weight selects, exactly the two runs the in-process engine
// makes — and the re-validation of resumed levels, and are *expendable*.
// The fleet is crash isolation, not a speed-up: the simulations take the
// same closed form they take in-process, and the coordinator adds the
// shipping on top. The point of the design is that nothing a worker can do
// wrong is surprising:
//
//   incident            detected as                    classification
//   ------------------  -----------------------------  --------------
//   clean nonzero exit  EOF on the reply pipe + reap   transient
//   SIGKILL / crash     EOF on the reply pipe + reap   transient
//   hung worker         reply frame deadline expired   transient
//   stopped reading     request write deadline expired transient
//   corrupt frame       bad magic / checksum / torn    transient
//   respawns exhausted  too many incidents one level   permanent
//   fork(2) refused     IoError from spawn_worker      degrade in-process
//
// Each worker slot holds one forked process and its pipe pair. A transient
// incident kills and reaps the worker, waits out a geometric backoff,
// respawns the slot and replays its outstanding requests — the chain state
// lives only in the coordinator, so nothing is lost but time. While
// certifying, a slot never holds more than one request, and every request
// write and reply read runs under `reply_deadline_seconds`, so no exchange
// can block forever. Once one level accumulates more than
// `max_respawns_per_level` incidents the run fails permanently with
// WorkerLost (classified RunStatus::kWorkerLost), carrying the incident log
// in the FleetReport.
//
// The chain itself runs on the resumable engine's loop (resume_chain in
// recover/resumable_adversary.hpp): load, job check, re-validation, base
// case, per-level retry and checkpoint are the in-process engine's own, and
// the fleet supplies only the step and the sharded re-validation. A host
// that cannot fork degrades to the in-process resumable engine, mirroring
// ThreadPool::construction_error(); both produce the byte-identical
// certificate. Set `degrade = false` to fail fast instead.
//
// Determinism: workers only ever *simulate* — every decision (case choice,
// propagation, verification) happens in the coordinator, and the simulator
// is deterministic on a fixed graph. The final certificate is therefore
// byte-identical across worker counts 0/1/2/N, across kill-and-respawn
// histories, and to a plain run_adversary run; scripts/ci.sh pins exactly
// that.
//
// Caveats: AdversaryOptions::hooks and ::diagnostics cannot cross the
// process boundary — worker-side simulations run bare (the coordinator
// polls ::cancel between exchanges). Chains needing observation hooks
// should use workers = 0 or run_adversary_resumable directly.
#pragma once

#include <sys/types.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ldlb/core/adversary.hpp"
#include "ldlb/fault/guarded_run.hpp"
#include "ldlb/matching/fractional_matching.hpp"
#include "ldlb/recover/cert_log.hpp"
#include "ldlb/recover/resumable_adversary.hpp"
#include "ldlb/recover/supervisor.hpp"

namespace ldlb {

/// Builds one EcAlgorithm instance. Called once in the coordinator and once
/// inside every (re)spawned worker — the factory must therefore be
/// fork-safe and each instance independent (no shared mutable state).
using AlgorithmFactory = std::function<std::unique_ptr<EcAlgorithm>()>;

/// Tuning knobs for a fleet run.
struct FleetOptions {
  /// Worker processes to spawn; 0 runs the in-process resumable engine
  /// (still checkpointing into the log) — byte-identical output.
  int workers = 2;
  /// Forwarded into every adversary step the coordinator performs. See the
  /// header comment for the hooks/diagnostics caveat.
  AdversaryOptions adversary;
  /// Per-level supervision: a transient *error reply* (budget-exceeded, a
  /// retryable env-fault) retries the level with an escalated round budget,
  /// exactly as the in-process engine would.
  RetryPolicy retry;
  /// Worker incidents tolerated per level before the run fails permanently
  /// with WorkerLost.
  int max_respawns_per_level = 3;
  /// Geometric respawn backoff: base · factor^(incident-1), capped at max.
  double backoff_base_seconds = 0.01;
  double backoff_factor = 2.0;
  double backoff_max_seconds = 0.5;
  /// How long the coordinator waits for one reply frame, or for a worker
  /// to take one request frame, before declaring the worker hung (killed,
  /// reaped, respawned; incident "hang" or "write-hang").
  double reply_deadline_seconds = 120.0;
  /// Re-validate a loaded log prefix (sharded across the fleet, (P2)
  /// included) before trusting it; levels from the first invalid one
  /// onward are recomputed.
  bool revalidate = true;
  /// Degrade to the in-process engine when fork(2) refuses the initial
  /// spawn, instead of failing fast.
  bool degrade = true;
  /// Chaos seam: called before each level's requests go out, with the live
  /// worker pids (one per slot). Tests and `ldlb_fleet --kill-every-level`
  /// SIGKILL (or SIGSTOP) a pid here via ipc::kill_process to drive the
  /// kill-respawn-replay path deterministically.
  std::function<void(int level, const std::vector<pid_t>& pids)> on_level;
  /// Called after each freshly certified level is durably checkpointed
  /// (same contract as ResumeOptions::on_checkpoint, including
  /// crash_at_level).
  std::function<void(const CertificateLevel&)> on_checkpoint;
};

/// One worker failure, as the coordinator classified and survived it.
struct WorkerIncident {
  int level = 0;        ///< chain level being built (-1: revalidation)
  int worker_slot = 0;  ///< 0-based slot of the lost worker
  /// "exit", "signal", "spawn", "hang", "write-hang" or "corrupt-frame".
  std::string kind;
  std::string detail;   ///< exit status / frame defect / errno text
  bool respawned = false;  ///< false only for the final, fatal incident

  [[nodiscard]] std::string to_string() const;
};

/// Everything observable about one fleet run — populated on success *and*
/// on classified failure.
struct FleetReport {
  int workers_requested = 0;
  int workers_spawned = 0;  ///< initial spawns that succeeded
  int respawns = 0;         ///< replacement workers over the whole run
  int requests_sent = 0;    ///< run/validate requests dispatched
  int requests_replayed = 0;  ///< re-sent to a replacement worker
  /// Transport that produced the final certificate: "pipe" or
  /// "in-process".
  std::string transport;
  bool degraded_in_process = false;  ///< fork refused; in-process engine ran
  std::string degrade_reason;        ///< why ("" unless degraded)
  std::vector<WorkerIncident> incidents;
  ResumeInfo resume;  ///< log recovery + per-level supervision log
  /// Final classification: kOk, or the status of the terminating error
  /// (kWorkerLost when the respawn budget ran out).
  RunStatus status = RunStatus::kOk;
  std::string error;  ///< what() of the terminating error ("" if ok)

  // Kept only because perfbench/ reads them; the next benchmark change
  // deletes them. The fleet ships no ball table, so both stay 0.
  long long ball_table_bytes = 0;
  double ball_table_ship_ms = 0.0;

  [[nodiscard]] std::string to_string() const;
};

/// Runs the full adversary at maximum degree `delta`, checkpointing into
/// (and resuming from) `log`, running simulation and revalidation in
/// `options.workers` processes. Returns the complete chain, exactly
/// as run_adversary would; throws the classified error on permanent failure
/// (after filling `report`). Requires delta >= 2 and workers >= 0.
LowerBoundCertificate run_adversary_fleet(const AlgorithmFactory& factory,
                                          int delta, CertificateLog& log,
                                          const FleetOptions& options = {},
                                          FleetReport* report = nullptr);

/// The worker side of the wire protocol: serve run/validate requests from
/// `in_fd`, write replies to `out_fd`, return the exit code. Exposed so the
/// protocol can be exercised against a worker in isolation (ipc_test).
int fleet_worker_main(const AlgorithmFactory& factory, int in_fd, int out_fd);

namespace detail {

/// The worker's reply to a run request: "ok <id> <edge_count>", then one
/// exact weight ("num/den", or an integer) per line.
[[nodiscard]] std::string run_reply(long long id, const FractionalMatching& y);

/// Reads `count` whitespace-separated weights from a run reply's body;
/// nullopt when the body holds fewer or one is malformed, which the
/// coordinator treats as a corrupt frame. Reserves no more entries than the
/// body can hold, so a lying count cannot force a large allocation.
[[nodiscard]] std::optional<std::vector<Rational>> read_weight_list(
    std::string_view body, long long count);

}  // namespace detail

}  // namespace ldlb
