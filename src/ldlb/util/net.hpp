// Dependency-free TCP transport speaking the LDF1 frame protocol.
//
// The fleet's pipe transport (util/ipc) only reaches forked children on the
// same host. This module carries the *same* 20-byte checksummed frames over
// TCP sockets so workers can live anywhere — and confines every raw socket
// syscall (socket/bind/listen/accept/connect/setsockopt) to this one file,
// enforced by the raw-socket lint rule, so the tree has exactly one audited
// place where bytes meet the network.
//
//   * Framing: FrameChannel::send/recv reuse ipc::encode_frame /
//     ipc::read_frame, so damage on the wire — torn writes, bit flips,
//     foreign peers — classifies into the same kOk/kEof/kTimeout/kCorrupt
//     taxonomy the pipe fleet already survives. Nothing reads as silent
//     garbage.
//   * Deadlines: connects, accepts, reads and the coordinator's writes are
//     poll(2)-driven against monotonic Deadlines (util/cancellation.hpp); a
//     dead router surfaces as kTimeout or an ETIMEDOUT IoError, never a
//     hang.
//   * Heartbeats: an idle peer sends small heartbeat frames; recv consumes
//     them transparently and tracks a staleness window, so a peer that
//     stops breathing mid-wait surfaces as a *stale* timeout the fleet can
//     classify separately from an ordinary slow reply.
//   * Handshake: every connection opens with a versioned hello/welcome
//     exchange carrying the protocol version and a run fingerprint;
//     mismatches throw the typed HandshakeMismatch before any work is
//     sharded.
//   * Faults: a process-wide NetFaultInjector seam (mirroring
//     FsFaultInjector in util/atomic_file) lets tests inject
//     connect-refused, mid-frame disconnect, byte corruption, delay and
//     partition at the two audited call sites (connect_channel,
//     FrameChannel::send).
//
// Addresses are numeric IPv4 ("127.0.0.1") or the literal "localhost"; the
// fleet's remote endpoints are explicit host:port pairs, so no resolver —
// and no resolver's nondeterminism — is pulled in.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "ldlb/util/cancellation.hpp"
#include "ldlb/util/ipc.hpp"

namespace ldlb::net {

/// Bumped whenever the wire protocol (framing, handshake, request grammar)
/// changes incompatibly; the handshake rejects any other version. A
/// version-1 peer would send a "balls" request, which version 2 does not
/// serve, so it fails the handshake instead.
inline constexpr std::uint64_t kNetProtocolVersion = 2;

/// Payload of a heartbeat frame. recv() consumes these transparently;
/// exposed so tests can forge or count them.
inline constexpr std::string_view kHeartbeatPayload = "ldlb-hb";

/// Injection seam for network faults, mirroring FsFaultInjector
/// (util/atomic_file). A process-wide injector — installed via
/// set_net_fault_injector, normally through fault/net_fault's scoped
/// helper — sees every outbound connect and every outbound frame, and may
/// refuse, corrupt, delay, drop or cut them. Production runs have no
/// injector and pay one pointer test per call site.
class NetFaultInjector {
 public:
  virtual ~NetFaultInjector() = default;

  /// Called before connect(2); throw IoError (e.g. ECONNREFUSED) to
  /// simulate a refused or unreachable endpoint.
  virtual void on_connect(const std::string& host, int port);

  /// What to do with one outbound frame (beyond in-place corruption).
  struct SendAction {
    double delay_seconds = 0;  ///< sleep this long before writing (slow link)
    bool drop = false;         ///< partition: the frame never hits the wire
    /// >= 0: write only this prefix, then hard-close the socket — a
    /// mid-frame disconnect exactly as a crashing peer would produce.
    long truncate_at = -1;
  };

  /// Called with the fully encoded frame (header + payload) before it is
  /// written; may flip bytes in place and/or return a SendAction.
  virtual SendAction on_send(std::string& frame);
};

/// The installed injector (nullptr when none).
[[nodiscard]] NetFaultInjector* net_fault_injector();

/// Installs `injector` process-wide (nullptr uninstalls). Not thread-safe
/// against concurrent sends; tests install before spawning traffic.
void set_net_fault_injector(NetFaultInjector* injector);

/// Result of one recv(): the classified frame, plus whether a configured
/// staleness window elapsed without even a heartbeat (frame.status is then
/// kTimeout and the peer should be treated as lost, not merely slow).
struct RecvResult {
  ipc::FrameResult frame;
  bool stale = false;
};

/// One connected TCP peer carrying LDF1 frames. Move-only; the destructor
/// closes the socket.
class FrameChannel {
 public:
  FrameChannel() = default;
  /// Adopts an already-connected socket descriptor.
  explicit FrameChannel(int fd) : fd_(fd) {}
  FrameChannel(FrameChannel&& other) noexcept;
  FrameChannel& operator=(FrameChannel&& other) noexcept;
  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;
  ~FrameChannel();

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Sends one frame through ipc::write_all, routed through the fault
  /// injector. On a non-blocking channel (connect_channel's) a full socket
  /// buffer waits for room until `deadline`, then throws IoError with
  /// ETIMEDOUT. Throws IoError when the peer is gone (EPIPE/ECONNRESET) or
  /// a fault cuts the stream — callers treat any of these as a lost peer
  /// and reconnect.
  void send(std::string_view payload, const Deadline& deadline = {});

  /// Sends a heartbeat frame (peers consume it inside recv).
  void send_heartbeat() { send(kHeartbeatPayload); }

  /// Reads one non-heartbeat frame, polling until `deadline`. Heartbeat
  /// frames are consumed silently and refresh the staleness window; with
  /// `stale_after > 0`, going that long without *any* complete frame (data
  /// or heartbeat) returns kTimeout with `stale = true`. The readability
  /// poll never consumes bytes, so a plain timeout leaves the stream
  /// intact and the frame can still be read later.
  [[nodiscard]] RecvResult recv(const Deadline& deadline = {},
                                double stale_after = 0);

  /// Graceful close (idempotent).
  void close();

  /// Abortive close: RST instead of FIN, so the peer sees ECONNRESET
  /// immediately. The chaos hooks use this to simulate a yanked cable.
  void hard_close();

 private:
  int fd_ = -1;
};

/// A listening TCP socket handing out FrameChannels. Move-only.
class Listener {
 public:
  Listener() = default;
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  /// Binds and listens on host:port (port 0 picks an ephemeral port — read
  /// it back with port()). Throws IoError when the socket calls refuse.
  [[nodiscard]] static Listener on(const std::string& host, int port);

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  /// The actual bound port (resolves port-0 requests).
  [[nodiscard]] int port() const { return port_; }

  /// Accepts one connection, polling until `deadline`; nullopt on timeout.
  [[nodiscard]] std::optional<FrameChannel> accept_channel(
      const Deadline& deadline = {});

  void close();

 private:
  int fd_ = -1;
  int port_ = 0;
};

/// Connects to host:port, polling the non-blocking connect against
/// `deadline`. The channel stays non-blocking, so FrameChannel::send's
/// deadline bounds its writes. Throws IoError on refusal/timeout (routed
/// through the fault injector's on_connect first).
[[nodiscard]] FrameChannel connect_channel(const std::string& host, int port,
                                           const Deadline& deadline = {});

/// Client side of the versioned handshake: sends
/// "ldlb-net hello <version> <fingerprint>" and expects the matching
/// welcome. Throws HandshakeMismatch when the peer rejects or announces a
/// different version/fingerprint, IoError when the stream dies first.
void client_handshake(FrameChannel& channel, std::uint64_t fingerprint,
                      const Deadline& deadline);

/// Server side: expects the hello; on match replies
/// "ldlb-net welcome <version> <fingerprint>", on mismatch replies
/// "ldlb-net reject <version> <fingerprint> <reason>" and throws
/// HandshakeMismatch.
void server_handshake(FrameChannel& channel, std::uint64_t fingerprint,
                      const Deadline& deadline);

}  // namespace ldlb::net
