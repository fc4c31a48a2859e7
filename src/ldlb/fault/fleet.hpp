// Crash-tolerant multi-process adversary fleet.
//
// run_adversary_fleet is the adversary chain (core/adversary.hpp) executed
// coordinator/worker style: the coordinator owns the chain, the checkpoint
// store and every decision; N forked worker processes (util/ipc.hpp) do the
// expensive work — the three speculative simulations of each step (GH, GG,
// HH) and the re-validation of resumed levels — and are *expendable*. The
// point of the design is that nothing a worker can do wrong is surprising:
//
//   incident            detected as                    classification
//   ------------------  -----------------------------  --------------
//   clean nonzero exit  EOF on the reply pipe + reap   transient
//   SIGKILL / crash     EOF on the reply pipe + reap   transient
//   hung worker         reply frame deadline expired   transient
//   corrupt frame       bad magic / checksum / torn    transient
//   disconnect          socket EOF / EPIPE / RST       transient
//   stale heartbeat     no frame in staleness window   transient
//   handshake mismatch  wrong version / fingerprint    transient
//   respawns exhausted  too many incidents one level   permanent
//   fork(2) refused     IoError from spawn_worker      degrade in-process
//   remotes exhausted   WorkerLost on the socket path  degrade to pipe
//
// The coordinator talks to workers through the Transport abstraction
// (fault/transport.hpp): forked pipe workers on this host, or — when
// FleetOptions::remotes names worker daemons — TCP connections speaking
// the same frames with a versioned handshake and idle heartbeats. A
// transient incident tears the link down (kill+reap / close), waits out a
// geometric backoff, reopens the same slot (respawn / reconnect) and
// replays that slot's outstanding requests — the chain state lives only in
// the coordinator, so nothing is lost but time. Once one level accumulates
// more than `max_respawns_per_level` incidents the run fails permanently
// with WorkerLost (classified RunStatus::kWorkerLost), carrying the
// incident log in the FleetReport.
//
// Degradation runs outward-in: a socket fleet whose respawn budget is
// spent falls back to the pipe fleet (resuming from the checkpoint store,
// so no certified level is recomputed), and a host that cannot fork
// degrades to the in-process resumable engine, mirroring
// ThreadPool::construction_error(). Every step of the ladder produces the
// byte-identical certificate; set `degrade = false` to fail fast instead.
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
#include "ldlb/fault/transport.hpp"
#include "ldlb/matching/fractional_matching.hpp"
#include "ldlb/recover/checkpoint.hpp"
#include "ldlb/recover/resumable_adversary.hpp"
#include "ldlb/recover/supervisor.hpp"
#include "ldlb/util/net.hpp"

namespace ldlb {

/// Builds one EcAlgorithm instance. Called once in the coordinator and once
/// inside every (re)spawned worker — the factory must therefore be
/// fork-safe and each instance independent (no shared mutable state).
using AlgorithmFactory = std::function<std::unique_ptr<EcAlgorithm>()>;

/// Tuning knobs for a fleet run.
struct FleetOptions {
  /// Worker processes to spawn; 0 runs the in-process resumable engine
  /// (still checkpointing into the store) — byte-identical output.
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
  /// How long the coordinator waits for one reply frame before declaring
  /// the worker hung (killed, reaped, respawned).
  double reply_deadline_seconds = 120.0;
  /// Re-validate a loaded store prefix (sharded across the fleet) before
  /// trusting it; levels from the first invalid one onward are recomputed.
  bool revalidate = true;
  /// Check (Δ-1-i)-loopiness during revalidation: one factor graph per
  /// stored graph, ~0.02 s over a whole Δ=14 chain on one thread.
  bool check_loopiness = false;
  /// Worker daemons to connect to instead of forking: non-empty switches
  /// the fleet to the socket transport, slots mapping onto endpoints
  /// round-robin. The daemons must serve the same delta and algorithm
  /// (enforced by the handshake fingerprint).
  std::vector<RemoteEndpoint> remotes;
  /// Walk the degradation ladder (socket → pipe → in-process) instead of
  /// failing fast when a transport is exhausted.
  bool degrade = true;
  /// Socket transport: how long one connect + handshake may take.
  double connect_timeout_seconds = 5.0;
  /// Socket transport: a reply wait going this long without even a
  /// heartbeat classifies the worker as stale (idle workers heartbeat
  /// every few hundred ms; a computing worker is silent, so this must
  /// exceed the worst-case single-request compute time).
  double stale_after_seconds = 30.0;
  /// Chaos seam: called before each level's requests go out, with the live
  /// worker pids. Tests SIGKILL a pid here (via ipc::kill_process) to drive
  /// the kill-respawn-replay path deterministically. Pipe transport only
  /// (socket slots have no local pid) — prefer on_level_drop.
  std::function<void(int level, const std::vector<pid_t>& pids)> on_level;
  /// Transport-agnostic chaos seam: called before each level's requests go
  /// out with the slot count and a `drop` function that violently severs
  /// one slot's link (SIGKILL for pipe workers, an abortive RST close for
  /// sockets). Drives the lose-reconnect-replay path deterministically on
  /// either transport.
  std::function<void(int level, int slots,
                     const std::function<void(int slot)>& drop)>
      on_level_drop;
  /// Called after each freshly certified level is durably checkpointed
  /// (same contract as ResumeOptions::on_checkpoint, including
  /// crash_at_level).
  std::function<void(const CertificateLevel&)> on_checkpoint;
};

/// One worker failure, as the coordinator classified and survived it.
struct WorkerIncident {
  int level = 0;        ///< chain level being built (-1: revalidation,
                        ///< -2: initial connection setup)
  int worker_slot = 0;  ///< 0-based slot of the lost worker
  /// "exit", "signal", "hang", "corrupt-frame", "spawn" (pipe);
  /// "disconnect", "stale-heartbeat", "handshake", "connect" (socket).
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
  /// Transport that produced the final certificate: "socket", "pipe" or
  /// "in-process".
  std::string transport;
  /// One entry per degradation step taken ("socket -> pipe: <why>", ...).
  std::vector<std::string> degrades;
  bool degraded_in_process = false;  ///< fork refused; in-process engine ran
  std::string degrade_reason;        ///< why ("" unless degraded)
  std::vector<WorkerIncident> incidents;
  ResumeInfo resume;  ///< store recovery + per-level supervision log
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
/// (and resuming from) `store`, distributing simulation and revalidation
/// across `options.workers` processes. Returns the complete chain, exactly
/// as run_adversary would; throws the classified error on permanent failure
/// (after filling `report`). Requires delta >= 2 and workers >= 0.
LowerBoundCertificate run_adversary_fleet(const AlgorithmFactory& factory,
                                          int delta, CheckpointStore& store,
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

/// The handshake fingerprint of a fleet job: FNV-1a over the delta and the
/// algorithm name. A coordinator only ever shards work to daemons serving
/// the same job, so a stale daemon (wrong delta, different algorithm)
/// surfaces as a typed HandshakeMismatch before any request goes out.
[[nodiscard]] std::uint64_t fleet_fingerprint(int delta,
                                              const std::string& algorithm_name);

/// Tuning for a worker daemon (run_fleet_daemon).
struct FleetDaemonOptions {
  /// Idle connections send a heartbeat frame this often, so a coordinator
  /// waiting out a long backoff still sees a breathing peer.
  double heartbeat_interval_seconds = 0.25;
  /// Stop accepting once this many connections have been served *and*
  /// every per-connection child has exited; 0 serves forever.
  long long max_connections = 0;
};

/// Serves fleet workers on `listener` until killed (or `max_connections`
/// is reached): each accepted connection is handed to a forked child
/// (ipc::spawn_child) that answers the versioned handshake for
/// fleet_fingerprint(delta, algorithm name) and then serves run/validate
/// requests — heartbeating while idle — until the coordinator hangs up.
/// Returns the daemon's exit code.
int run_fleet_daemon(const AlgorithmFactory& factory, int delta,
                     net::Listener& listener,
                     const FleetDaemonOptions& options = {});

}  // namespace ldlb
