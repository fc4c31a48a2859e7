// Transport abstraction between the fleet coordinator and its workers.
//
// PR 6's coordinator talked to forked children over pipe fds directly; the
// socket fleet needs the same conversation to run over TCP. A WorkerLink is
// one coordinator↔worker conversation — send a frame, receive a classified
// frame, and, when the link dies, tear it down and *classify the loss* into
// the fleet's incident taxonomy:
//
//   transport   loss observed as                     incident kind
//   ---------   ----------------------------------   ----------------
//   pipe        EOF on reply pipe + reap: exit code  "exit"
//   pipe        EOF on reply pipe + reap: signal     "signal"
//   both        reply deadline expired               "hang"
//   both        bad magic / checksum / torn frame    "corrupt-frame"
//   socket      EOF / EPIPE / ECONNRESET             "disconnect"
//   socket      staleness window without heartbeat   "stale-heartbeat"
//   socket      handshake version/fingerprint        "handshake"
//   pipe        fork(2) refused on (re)open          "spawn"
//   socket      connect refused / unreachable        "connect"
//
// A Transport opens links into numbered slots; the fleet (fault/fleet.cpp)
// owns the slots, the outstanding-request queues and every decision, so the
// respawn/reconnect-with-replay machinery is written once and runs over
// either transport unchanged.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ldlb/util/ipc.hpp"
#include "ldlb/util/net.hpp"

namespace ldlb {

/// How a lost link was classified (fleet incident kind + diagnostic text).
struct LinkLoss {
  std::string kind;
  std::string detail;
};

/// One live coordinator↔worker conversation.
class WorkerLink {
 public:
  virtual ~WorkerLink() = default;

  /// Ships one request frame. Throws IoError when the peer is gone.
  virtual void send(std::string_view payload) = 0;

  /// Reads one reply frame against `deadline`; socket links additionally
  /// watch the heartbeat staleness window (result.stale). Never throws on
  /// peer damage — losses come back classified.
  [[nodiscard]] virtual net::RecvResult recv(const Deadline& deadline) = 0;

  /// Tears the dead link down (kill+reap / close) and classifies the loss.
  /// `hint_kind` carries a frame-level classification ("hang",
  /// "corrupt-frame", "stale-heartbeat") when one applies; empty lets the
  /// transport decide (pipe: from the reaped exit status; socket:
  /// "disconnect").
  [[nodiscard]] virtual LinkLoss close_after_loss(const std::string& hint_kind,
                                                  const std::string& detail) = 0;

  /// Graceful teardown: best-effort shutdown frame, then close (and, for
  /// pipes, reap — killing stragglers).
  virtual void finish() = 0;

  /// Unconditional teardown for destructors: close/kill/reap, never throw.
  virtual void terminate() noexcept = 0;

  /// Chaos seam: violently sever the live link — SIGKILL for a pipe
  /// worker, an abortive RST close for a socket — so the next exchange
  /// sees exactly what a crashed or unplugged host produces.
  virtual void drop() = 0;

  /// The worker process id (pipe links only; -1 for sockets).
  [[nodiscard]] virtual pid_t pid() const { return -1; }
};

/// Factory for links into numbered worker slots.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Opens a link for slot `slot`. Throws IoError (spawn/connect refused)
  /// or HandshakeMismatch (socket peer speaks the wrong protocol/run).
  [[nodiscard]] virtual std::unique_ptr<WorkerLink> open(int slot) = 0;

  /// "pipe" or "socket" — lands in FleetReport::transport.
  [[nodiscard]] virtual const char* name() const = 0;

  /// Incident kind of an IoError from open(): "spawn" or "connect".
  [[nodiscard]] virtual const char* open_failure_kind() const = 0;

  /// True when open() failures should consume the respawn budget and
  /// retry (socket: a remote may be rebooting). False means the first
  /// failure is final for the caller (pipe: a host that cannot fork now
  /// will not fork after a backoff either — degrade instead).
  [[nodiscard]] virtual bool open_retries() const = 0;
};

/// One remote worker daemon ("127.0.0.1:4711"). Slots map onto endpoints
/// round-robin, so 4 workers over 2 endpoints open 2 connections each.
struct RemoteEndpoint {
  std::string host;
  int port = 0;

  [[nodiscard]] std::string to_string() const {
    return host + ":" + std::to_string(port);
  }
};

/// Socket transport tuning (mirrored from FleetOptions).
struct SocketTuning {
  double connect_timeout_seconds = 5.0;
  /// A reply wait going this long without even a heartbeat classifies the
  /// worker as stale. Must exceed the worst-case single-request compute
  /// time — an idle worker heartbeats, a computing one is silent.
  double stale_after_seconds = 30.0;
};

/// Fork-per-slot transport over util/ipc pipes (the PR 6 fleet).
[[nodiscard]] std::unique_ptr<Transport> make_pipe_transport(
    ipc::WorkerMain body);

/// TCP transport: each open() connects to remotes[slot % remotes.size()]
/// and runs the client side of the versioned handshake for `fingerprint`.
[[nodiscard]] std::unique_ptr<Transport> make_socket_transport(
    std::vector<RemoteEndpoint> remotes, std::uint64_t fingerprint,
    const SocketTuning& tuning = {});

}  // namespace ldlb
