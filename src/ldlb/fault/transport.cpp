#include "ldlb/fault/transport.hpp"

#include <cerrno>
#include <sstream>
#include <utility>

#include "ldlb/util/error.hpp"

namespace ldlb {

namespace {

// How long a teardown waits for a worker to take its shutdown frame, and
// then (pipes) to exit, before giving up on it.
constexpr double kGraceSeconds = 5.0;

// ---------------------------------------------------------------------------
// Pipe transport: fork a worker per slot, classify losses by reaping.
// ---------------------------------------------------------------------------

class PipeLink final : public WorkerLink {
 public:
  explicit PipeLink(ipc::WorkerProcess proc) : proc_(proc) {}
  ~PipeLink() override { terminate(); }

  void send(std::string_view payload, const Deadline& deadline) override {
    ipc::write_frame(proc_.to_fd, payload, deadline);
  }

  net::RecvResult recv(const Deadline& deadline) override {
    net::RecvResult result;
    result.frame = ipc::read_frame(proc_.from_fd, deadline);
    return result;
  }

  LinkLoss close_after_loss(const std::string& hint_kind,
                            const std::string& detail) override {
    LinkLoss loss;
    ipc::close_worker_fds(proc_);
    ipc::kill_process(proc_.pid);
    const ipc::ExitStatus status =
        ipc::wait_exit(proc_.pid, Deadline::in(10.0));
    // An EOF incident takes its kind from how the child actually died; a
    // hang / corrupt frame keeps the frame-level classification (the kill
    // above then shows as SIGKILL, which would mislabel it "signal").
    loss.kind = !hint_kind.empty()
                    ? hint_kind
                    : (status.kind == ipc::ExitKind::kSignaled ? "signal"
                                                               : "exit");
    loss.detail = detail.empty() ? status.to_string()
                                 : detail + "; " + status.to_string();
    proc_ = {};
    return loss;
  }

  void request_shutdown() override {
    if (proc_.to_fd < 0) return;
    try {
      ipc::write_frame(proc_.to_fd, "shutdown", Deadline::in(kGraceSeconds));
    } catch (const IoError&) {
      // Already gone (or not reading); the reap in finish() cleans up.
    }
    ipc::close_worker_fds(proc_);
  }

  void finish() override {
    if (!proc_.valid()) return;
    request_shutdown();
    const ipc::ExitStatus status =
        ipc::wait_exit(proc_.pid, Deadline::in(kGraceSeconds));
    if (status.kind == ipc::ExitKind::kRunning) {
      ipc::kill_process(proc_.pid);
      (void)ipc::wait_exit(proc_.pid, Deadline::in(kGraceSeconds));
    }
    proc_ = {};
  }

  void terminate() noexcept override {
    if (!proc_.valid()) return;
    try {
      ipc::close_worker_fds(proc_);
      ipc::kill_process(proc_.pid);
      (void)ipc::wait_exit(proc_.pid, Deadline::in(kGraceSeconds));
      // ldlb-lint: allow(catch-all): teardown must not throw out of a
      // destructor; a worker we cannot reap is abandoned to init.
    } catch (...) {
    }
    proc_ = {};
  }

  void drop() override { ipc::kill_process(proc_.pid); }

  pid_t pid() const override { return proc_.pid; }

 private:
  ipc::WorkerProcess proc_;
};

class PipeTransport final : public Transport {
 public:
  explicit PipeTransport(ipc::WorkerMain body) : body_(std::move(body)) {}

  std::unique_ptr<WorkerLink> open(int /*slot*/) override {
    return std::make_unique<PipeLink>(ipc::spawn_worker(body_));
  }

  const char* name() const override { return "pipe"; }
  const char* open_failure_kind() const override { return "spawn"; }
  bool open_retries() const override { return false; }

 private:
  ipc::WorkerMain body_;
};

// ---------------------------------------------------------------------------
// Socket transport: connect + handshake per slot, heartbeat-aware reads.
// ---------------------------------------------------------------------------

class SocketLink final : public WorkerLink {
 public:
  SocketLink(net::FrameChannel channel, std::string endpoint,
             double stale_after)
      : channel_(std::move(channel)),
        endpoint_(std::move(endpoint)),
        stale_after_(stale_after) {}
  ~SocketLink() override { terminate(); }

  void send(std::string_view payload, const Deadline& deadline) override {
    // A dropped link (chaos RST close) leaves no fd; surface the loss the
    // way a dead peer would, so the fleet revives instead of asserting.
    if (!channel_.valid()) {
      throw IoError("net send on a severed channel", endpoint_, EPIPE);
    }
    channel_.send(payload, deadline);
  }

  net::RecvResult recv(const Deadline& deadline) override {
    if (!channel_.valid()) {
      net::RecvResult result;
      result.frame.status = ipc::FrameStatus::kEof;
      result.frame.detail = "channel to " + endpoint_ + " severed locally";
      return result;
    }
    try {
      return channel_.recv(deadline, stale_after_);
    } catch (const IoError& e) {
      // A read error (ECONNRESET after an abortive close, EBADF after a
      // local teardown) is a peer loss, not a coordinator bug: classify
      // it as EOF so the fleet runs its disconnect machinery.
      net::RecvResult result;
      result.frame.status = ipc::FrameStatus::kEof;
      result.frame.detail = e.what();
      return result;
    }
  }

  LinkLoss close_after_loss(const std::string& hint_kind,
                            const std::string& detail) override {
    LinkLoss loss;
    channel_.close();
    loss.kind = hint_kind.empty() ? "disconnect" : hint_kind;
    loss.detail =
        detail.empty() ? "peer " + endpoint_ + " lost" : detail;
    return loss;
  }

  void request_shutdown() override {
    if (!channel_.valid()) return;
    try {
      channel_.send("shutdown", Deadline::in(kGraceSeconds));
    } catch (const IoError&) {
      // Already gone (or not reading).
    }
    channel_.close();
  }

  void finish() override { request_shutdown(); }

  void terminate() noexcept override { channel_.close(); }

  void drop() override { channel_.hard_close(); }

 private:
  net::FrameChannel channel_;
  std::string endpoint_;
  double stale_after_;
};

class SocketTransport final : public Transport {
 public:
  SocketTransport(std::vector<RemoteEndpoint> remotes,
                  std::uint64_t fingerprint, const SocketTuning& tuning)
      : remotes_(std::move(remotes)),
        fingerprint_(fingerprint),
        tuning_(tuning) {
    LDLB_REQUIRE_MSG(!remotes_.empty(),
                     "socket transport needs at least one remote endpoint");
  }

  std::unique_ptr<WorkerLink> open(int slot) override {
    LDLB_REQUIRE(slot >= 0);
    const RemoteEndpoint& remote =
        remotes_[static_cast<std::size_t>(slot) % remotes_.size()];
    const Deadline deadline = Deadline::in(tuning_.connect_timeout_seconds);
    net::FrameChannel channel =
        net::connect_channel(remote.host, remote.port, deadline);
    net::client_handshake(channel, fingerprint_, deadline);
    return std::make_unique<SocketLink>(std::move(channel),
                                        remote.to_string(),
                                        tuning_.stale_after_seconds);
  }

  const char* name() const override { return "socket"; }
  const char* open_failure_kind() const override { return "connect"; }
  bool open_retries() const override { return true; }

 private:
  std::vector<RemoteEndpoint> remotes_;
  std::uint64_t fingerprint_;
  SocketTuning tuning_;
};

}  // namespace

std::unique_ptr<Transport> make_pipe_transport(ipc::WorkerMain body) {
  LDLB_REQUIRE_MSG(body != nullptr, "pipe transport needs a worker body");
  return std::make_unique<PipeTransport>(std::move(body));
}

std::unique_ptr<Transport> make_socket_transport(
    std::vector<RemoteEndpoint> remotes, std::uint64_t fingerprint,
    const SocketTuning& tuning) {
  return std::make_unique<SocketTransport>(std::move(remotes), fingerprint,
                                           tuning);
}

}  // namespace ldlb
