#include "ldlb/util/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "ldlb/util/error.hpp"

namespace ldlb::net {

namespace {

NetFaultInjector* g_injector = nullptr;

[[noreturn]] void throw_io(const char* op, const std::string& where, int err) {
  std::ostringstream os;
  os << "net " << op << " on " << where << " failed: " << std::strerror(err);
  throw IoError(os.str(), where, err);
}

// Remaining budget of `deadline` as a poll(2) timeout in ms: -1 blocks
// indefinitely for the unset deadline, 0 polls, positive waits (capped so a
// clock-sized double cannot overflow the int).
int poll_timeout_ms(const Deadline& deadline) {
  if (!deadline.is_set()) return -1;
  const double remaining = deadline.remaining_seconds();
  if (remaining <= 0) return 0;
  const double ms = remaining * 1000.0;
  return ms >= 1e9 ? 1000000000 : static_cast<int>(ms) + 1;
}

// Tighter of two deadlines as a poll timeout (-1 = both unset).
int poll_timeout_ms(const Deadline& a, const Deadline& b) {
  const int ta = poll_timeout_ms(a);
  const int tb = poll_timeout_ms(b);
  if (ta < 0) return tb;
  if (tb < 0) return ta;
  return ta < tb ? ta : tb;
}

std::string endpoint_name(const std::string& host, int port) {
  return host + ":" + std::to_string(port);
}

// Numeric IPv4 only (plus the literal "localhost"): the fleet's endpoints
// are explicit pairs, so no resolver is pulled in.
sockaddr_in make_addr(const std::string& host, int port) {
  LDLB_REQUIRE_MSG(port >= 0 && port <= 65535, "port out of range: " << port);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    throw IoError(
        "net address '" + host + "' is not numeric IPv4 (or 'localhost')",
        host, EINVAL);
  }
  return addr;
}

// Small frames (requests, heartbeats) must not sit in Nagle's buffer while
// the peer's reply deadline burns down.
void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

}  // namespace

void NetFaultInjector::on_connect(const std::string& /*host*/, int /*port*/) {}

NetFaultInjector::SendAction NetFaultInjector::on_send(std::string& /*frame*/) {
  return {};
}

NetFaultInjector* net_fault_injector() { return g_injector; }

void set_net_fault_injector(NetFaultInjector* injector) {
  g_injector = injector;
}

FrameChannel::FrameChannel(FrameChannel&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

FrameChannel& FrameChannel::operator=(FrameChannel&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

FrameChannel::~FrameChannel() { close(); }

void FrameChannel::send(std::string_view payload, const Deadline& deadline) {
  LDLB_REQUIRE_MSG(valid(), "send on a closed channel");
  std::string frame = ipc::encode_frame(payload);
  NetFaultInjector::SendAction action;
  if (g_injector != nullptr) action = g_injector->on_send(frame);
  if (action.delay_seconds > 0) ipc::sleep_seconds(action.delay_seconds);
  if (action.drop) return;
  if (action.truncate_at >= 0 &&
      static_cast<std::size_t>(action.truncate_at) < frame.size()) {
    ipc::write_all(
        fd_,
        std::string_view(frame).substr(
            0, static_cast<std::size_t>(action.truncate_at)),
        deadline);
    hard_close();
    throw IoError("net send cut mid-frame (injected disconnect)", "<socket>",
                  EPIPE);
  }
  ipc::write_all(fd_, frame, deadline);
}

RecvResult FrameChannel::recv(const Deadline& deadline, double stale_after) {
  LDLB_REQUIRE_MSG(valid(), "recv on a closed channel");
  Deadline stale =
      stale_after > 0 ? Deadline::in(stale_after) : Deadline();
  for (;;) {
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, poll_timeout_ms(deadline, stale));
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw_io("poll", "<socket>", errno);
    }
    if (ready == 0) {
      RecvResult result;
      result.frame.status = ipc::FrameStatus::kTimeout;
      if (stale.is_set() && stale.expired()) {
        result.stale = true;
        result.frame.detail =
            "no frame or heartbeat within the staleness window";
        return result;
      }
      if (deadline.is_set() && deadline.expired()) {
        result.frame.detail = "deadline expired waiting for a frame";
        return result;
      }
      continue;  // rounding: neither deadline has quite expired yet
    }
    RecvResult result;
    result.frame = ipc::read_frame(fd_, deadline);
    if (result.frame.status == ipc::FrameStatus::kOk &&
        result.frame.payload == kHeartbeatPayload) {
      // The peer is alive, merely idle: restart the staleness window and
      // keep waiting for a data frame.
      if (stale_after > 0) stale = Deadline::in(stale_after);
      continue;
    }
    return result;
  }
}

void FrameChannel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void FrameChannel::hard_close() {
  if (fd_ < 0) return;
  struct linger lg;
  lg.l_onoff = 1;
  lg.l_linger = 0;
  ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
  close();
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

Listener::~Listener() { close(); }

Listener Listener::on(const std::string& host, int port) {
  const std::string where = endpoint_name(host, port);
  sockaddr_in addr = make_addr(host, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_io("socket", where, errno);
  // Re-binding a just-closed port must not fail for TIME_WAIT: restarted
  // daemons reuse their address.
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw_io("bind", where, err);
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    throw_io("listen", where, err);
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const int err = errno;
    ::close(fd);
    throw_io("getsockname", where, err);
  }
  Listener listener;
  listener.fd_ = fd;
  listener.port_ = static_cast<int>(ntohs(addr.sin_port));
  return listener;
}

std::optional<FrameChannel> Listener::accept_channel(const Deadline& deadline) {
  LDLB_REQUIRE_MSG(valid(), "accept on a closed listener");
  for (;;) {
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, poll_timeout_ms(deadline));
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw_io("poll", "<listener>", errno);
    }
    if (ready == 0) {
      if (deadline.is_set() && deadline.expired()) return std::nullopt;
      continue;
    }
    const int cfd = ::accept(fd_, nullptr, nullptr);
    if (cfd < 0) {
      // The peer may have given up between poll and accept (ECONNABORTED)
      // — not our problem; keep listening.
      if (errno == EINTR || errno == EAGAIN || errno == ECONNABORTED) continue;
      throw_io("accept", "<listener>", errno);
    }
    set_nodelay(cfd);
    return FrameChannel(cfd);
  }
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

FrameChannel connect_channel(const std::string& host, int port,
                             const Deadline& deadline) {
  if (g_injector != nullptr) g_injector->on_connect(host, port);
  ipc::ignore_sigpipe();
  const std::string where = endpoint_name(host, port);
  sockaddr_in addr = make_addr(host, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_io("socket", where, errno);

  // Non-blocking connect so the handshake deadline, not the kernel's
  // SYN-retry schedule, bounds how long an unreachable endpoint stalls us.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno != EINPROGRESS && errno != EINTR) {
    const int err = errno;
    ::close(fd);
    throw_io("connect", where, err);
  }
  if (rc != 0) {
    for (;;) {
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLOUT;
      pfd.revents = 0;
      const int ready = ::poll(&pfd, 1, poll_timeout_ms(deadline));
      if (ready < 0) {
        if (errno == EINTR) continue;
        const int err = errno;
        ::close(fd);
        throw_io("poll", where, err);
      }
      if (ready == 0) {
        if (deadline.is_set() && deadline.expired()) {
          ::close(fd);
          throw_io("connect", where, ETIMEDOUT);
        }
        continue;
      }
      break;
    }
    int err = 0;
    socklen_t elen = sizeof err;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &elen);
    if (err != 0) {
      ::close(fd);
      throw_io("connect", where, err);
    }
  }
  // The socket stays non-blocking: send's deadline then bounds a write to
  // a peer that stopped reading, and reads poll before they read.
  set_nodelay(fd);
  return FrameChannel(fd);
}

namespace {

std::string handshake_banner(const char* verb, std::uint64_t fingerprint) {
  std::ostringstream os;
  os << "ldlb-net " << verb << ' ' << kNetProtocolVersion << ' '
     << fingerprint;
  return os.str();
}

std::string expectation(std::uint64_t fingerprint) {
  std::ostringstream os;
  os << "version " << kNetProtocolVersion << " fingerprint " << fingerprint;
  return os.str();
}

struct Greeting {
  bool parsed = false;
  std::string verb;
  std::uint64_t version = 0;
  std::uint64_t fingerprint = 0;
};

// "ldlb-net <verb> <version> <fingerprint>".
Greeting parse_greeting(const std::string& payload) {
  Greeting greeting;
  std::istringstream is(payload);
  std::string tag;
  if (!(is >> tag >> greeting.verb >> greeting.version >>
        greeting.fingerprint)) {
    return greeting;
  }
  greeting.parsed = tag == "ldlb-net";
  return greeting;
}

[[noreturn]] void throw_mismatch(const char* side, const std::string& expected,
                                 const std::string& got) {
  throw HandshakeMismatch(std::string("net handshake mismatch (") + side +
                              "): expected " + expected + ", peer sent '" +
                              got + "'",
                          expected, got);
}

[[noreturn]] void throw_handshake_io(const char* side,
                                     const ipc::FrameResult& frame) {
  std::ostringstream os;
  os << "net handshake (" << side
     << ") read failed: " << ipc::to_string(frame.status);
  if (!frame.detail.empty()) os << " (" << frame.detail << ")";
  throw IoError(os.str(), "<socket>", 0);
}

}  // namespace

void client_handshake(FrameChannel& channel, std::uint64_t fingerprint,
                      const Deadline& deadline) {
  channel.send(handshake_banner("hello", fingerprint));
  const RecvResult reply = channel.recv(deadline);
  if (reply.frame.status != ipc::FrameStatus::kOk) {
    throw_handshake_io("client", reply.frame);
  }
  const Greeting greeting = parse_greeting(reply.frame.payload);
  if (!greeting.parsed || greeting.verb != "welcome" ||
      greeting.version != kNetProtocolVersion ||
      greeting.fingerprint != fingerprint) {
    throw_mismatch("client", expectation(fingerprint), reply.frame.payload);
  }
}

void server_handshake(FrameChannel& channel, std::uint64_t fingerprint,
                      const Deadline& deadline) {
  const RecvResult hello = channel.recv(deadline);
  if (hello.frame.status != ipc::FrameStatus::kOk) {
    throw_handshake_io("server", hello.frame);
  }
  const Greeting greeting = parse_greeting(hello.frame.payload);
  if (!greeting.parsed || greeting.verb != "hello" ||
      greeting.version != kNetProtocolVersion ||
      greeting.fingerprint != fingerprint) {
    // Best-effort courtesy reject so the client mismatches with detail
    // instead of a dead stream; the throw below is the real signal.
    try {
      channel.send(handshake_banner("reject", fingerprint));
    } catch (const IoError&) {
    }
    throw_mismatch("server", expectation(fingerprint), hello.frame.payload);
  }
  channel.send(handshake_banner("welcome", fingerprint));
}

}  // namespace ldlb::net
