#include "ldlb/util/ipc.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <exception>
#include <sstream>

#include "ldlb/util/checksum.hpp"
#include "ldlb/util/error.hpp"
#include "ldlb/util/thread_pool.hpp"

namespace ldlb::ipc {

namespace {

// 20-byte little-endian frame header: magic, payload length, payload
// checksum. The magic doubles as a resynchronisation sanity check — a
// reader that sees anything else is looking at a torn or foreign stream.
constexpr char kMagic[4] = {'L', 'D', 'F', '1'};
constexpr std::size_t kHeaderBytes = 4 + 8 + 8;

int g_spawn_failures_for_test = 0;
bool g_close_range_unavailable_for_test = false;

void put_u64(char* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint64_t get_u64(const char* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[i]))
         << (8 * i);
  }
  return v;
}

[[noreturn]] void throw_io(const char* op, int fd, int err) {
  std::ostringstream os;
  os << "ipc " << op << " on fd " << fd << " failed: " << std::strerror(err);
  throw IoError(os.str(), "<fd>", err);
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

// Fills `out[0..n)` from fd, polling until `deadline`. Returns kOk, or the
// classified failure. `what` names the piece being read for diagnostics.
FrameStatus read_exact(int fd, char* out, std::size_t n,
                       const Deadline& deadline, const char* what,
                       std::string& detail) {
  std::size_t got = 0;
  while (got < n) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, poll_timeout_ms(deadline));
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw_io("poll", fd, errno);
    }
    if (ready == 0) {
      std::ostringstream os;
      os << "deadline expired with " << got << "/" << n << " bytes of "
         << what;
      detail = os.str();
      return FrameStatus::kTimeout;
    }
    const ssize_t r = ::read(fd, out + got, n - got);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      throw_io("read", fd, errno);
    }
    if (r == 0) {
      std::ostringstream os;
      os << "peer closed the pipe with " << got << "/" << n << " bytes of "
         << what;
      detail = os.str();
      return got == 0 && n == kHeaderBytes ? FrameStatus::kEof
                                           : FrameStatus::kCorrupt;
    }
    got += static_cast<std::size_t>(r);
  }
  return FrameStatus::kOk;
}

// Closes fds first..last (inclusive; nothing when first > last) with
// close_range(2). False when the kernel lacks it (before Linux 5.9,
// ENOSYS) or a seccomp filter refuses it (EPERM).
bool close_fd_span(int first, int last) {
  if (first > last) return true;
  if (g_close_range_unavailable_for_test) return false;
  return ::close_range(static_cast<unsigned>(first),
                       static_cast<unsigned>(last), 0) == 0;
}

// Closes every fd above stdio but `keep_a` and `keep_b`: three close_range
// spans, or, where close_range fails, one close(2) per fd below the
// RLIMIT_NOFILE soft limit (the fds a process can have opened).
void close_fds_except(int keep_a, int keep_b) {
  const int lo = std::min(keep_a, keep_b);
  const int hi = std::max(keep_a, keep_b);
  const bool closed = close_fd_span(3, lo - 1) &&
                      close_fd_span(std::max(3, lo + 1), hi - 1) &&
                      close_fd_span(std::max(3, hi + 1), INT_MAX);
  if (closed) return;
  struct rlimit limit;
  int end = 1 << 20;  // Linux's default nr_open, if the limit is unreadable
  if (::getrlimit(RLIMIT_NOFILE, &limit) == 0 &&
      limit.rlim_cur < static_cast<rlim_t>(INT_MAX)) {
    end = static_cast<int>(limit.rlim_cur);
  }
  for (int fd = 3; fd < end; ++fd) {
    if (fd != keep_a && fd != keep_b) ::close(fd);  // EBADF: not open
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

const char* to_string(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk:
      return "ok";
    case FrameStatus::kEof:
      return "eof";
    case FrameStatus::kTimeout:
      return "timeout";
    case FrameStatus::kCorrupt:
      return "corrupt-frame";
  }
  return "unknown";
}

std::string encode_frame(std::string_view payload) {
  std::string out;
  out.resize(kHeaderBytes + payload.size());
  std::memcpy(out.data(), kMagic, 4);
  put_u64(out.data() + 4, payload.size());
  put_u64(out.data() + 12, fnv1a_64(payload));
  std::memcpy(out.data() + kHeaderBytes, payload.data(), payload.size());
  return out;
}

void write_all(int fd, std::string_view bytes, const Deadline& deadline) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    if (w >= 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) throw_io("write", fd, errno);
    // A non-blocking fd whose buffer is full: wait for room, not forever.
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, poll_timeout_ms(deadline));
    if (ready < 0 && errno != EINTR) throw_io("poll", fd, errno);
    if (ready == 0 && deadline.expired()) {
      std::ostringstream os;
      os << "ipc write on fd " << fd << " timed out: deadline expired with "
         << sent << "/" << bytes.size() << " bytes written";
      throw IoError(os.str(), "<fd>", ETIMEDOUT);
    }
  }
}

void write_frame(int fd, std::string_view payload, const Deadline& deadline) {
  char header[kHeaderBytes];
  std::memcpy(header, kMagic, 4);
  put_u64(header + 4, payload.size());
  put_u64(header + 12, fnv1a_64(payload));
  write_all(fd, std::string_view(header, kHeaderBytes), deadline);
  write_all(fd, payload, deadline);
}

FrameResult read_frame(int fd, const Deadline& deadline) {
  FrameResult result;
  char header[kHeaderBytes];
  result.status =
      read_exact(fd, header, kHeaderBytes, deadline, "frame header",
                 result.detail);
  if (result.status != FrameStatus::kOk) return result;

  if (std::memcmp(header, kMagic, 4) != 0) {
    result.status = FrameStatus::kCorrupt;
    result.detail = "bad frame magic";
    return result;
  }
  const std::uint64_t length = get_u64(header + 4);
  const std::uint64_t checksum = get_u64(header + 12);
  if (length > kMaxFramePayload) {
    std::ostringstream os;
    os << "implausible frame length " << length;
    result.status = FrameStatus::kCorrupt;
    result.detail = os.str();
    return result;
  }
  result.payload.resize(static_cast<std::size_t>(length));
  if (length > 0) {
    result.status = read_exact(fd, result.payload.data(),
                               result.payload.size(), deadline,
                               "frame payload", result.detail);
    if (result.status != FrameStatus::kOk) {
      result.payload.clear();
      return result;
    }
  }
  if (fnv1a_64(result.payload) != checksum) {
    result.payload.clear();
    result.status = FrameStatus::kCorrupt;
    result.detail = "frame checksum mismatch";
  }
  return result;
}

WorkerProcess spawn_worker(const WorkerMain& main) {
  LDLB_REQUIRE_MSG(main != nullptr, "spawn_worker needs a worker body");
  if (g_spawn_failures_for_test > 0) {
    --g_spawn_failures_for_test;
    throw IoError("ipc fork failed: injected spawn failure (test seam)",
                  "<fork>", EAGAIN);
  }
  ignore_sigpipe();

  int to_child[2] = {-1, -1};
  int from_child[2] = {-1, -1};
  if (::pipe(to_child) != 0) throw_io("pipe", -1, errno);
  if (::pipe(from_child) != 0) {
    const int err = errno;
    ::close(to_child[0]);
    ::close(to_child[1]);
    throw_io("pipe", -1, err);
  }

  const pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    throw_io("fork", -1, err);
  }

  if (pid == 0) {
    // Child. The parent's pool threads do not exist here; every parallel_*
    // call must run inline from now on.
    ThreadPool::note_forked_child();
    // Keep stdio and the two ends this worker serves; every other fd goes,
    // including earlier slots' coordinator ends, so a worker whose
    // coordinator closes its request pipe sees EOF while siblings live.
    close_fds_except(to_child[0], from_child[1]);
    int code = 125;
    try {
      code = main(to_child[0], from_child[1]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ldlb worker %d: %s\n",
                   static_cast<int>(::getpid()), e.what());
      // ldlb-lint: allow(catch-all): process boundary — an exception
      // escaping the worker body must become a nonzero _exit code for the
      // coordinator to classify, whatever its type; nothing outlives _exit.
    } catch (...) {
      std::fprintf(stderr, "ldlb worker %d: unknown exception\n",
                   static_cast<int>(::getpid()));
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    ::_exit(code);
  }

  // Parent.
  ::close(to_child[0]);
  ::close(from_child[1]);
  set_nonblocking(to_child[1]);
  set_nonblocking(from_child[0]);
  WorkerProcess worker;
  worker.pid = pid;
  worker.to_fd = to_child[1];
  worker.from_fd = from_child[0];
  return worker;
}

void close_worker_fds(WorkerProcess& worker) {
  if (worker.to_fd >= 0) ::close(worker.to_fd);
  if (worker.from_fd >= 0) ::close(worker.from_fd);
  worker.to_fd = -1;
  worker.from_fd = -1;
}

const char* to_string(ExitKind kind) {
  switch (kind) {
    case ExitKind::kRunning:
      return "running";
    case ExitKind::kExited:
      return "exited";
    case ExitKind::kSignaled:
      return "signaled";
  }
  return "unknown";
}

std::string ExitStatus::to_string() const {
  std::ostringstream os;
  switch (kind) {
    case ExitKind::kRunning:
      os << "running";
      break;
    case ExitKind::kExited:
      os << "exited(" << code << ")";
      break;
    case ExitKind::kSignaled: {
      const char* name = ::strsignal(sig);
      os << "signaled(" << (name != nullptr ? name : "?") << ")";
      break;
    }
  }
  return os.str();
}

ExitStatus poll_exit(pid_t pid) {
  ExitStatus status;
  int raw = 0;
  const pid_t r = ::waitpid(pid, &raw, WNOHANG);
  if (r == 0) return status;  // still running
  if (r < 0) {
    // ECHILD: already reaped elsewhere — report a clean synthetic exit so
    // double-reaps stay harmless.
    if (errno == ECHILD) {
      status.kind = ExitKind::kExited;
      return status;
    }
    throw_io("waitpid", -1, errno);
  }
  if (WIFEXITED(raw)) {
    status.kind = ExitKind::kExited;
    status.code = WEXITSTATUS(raw);
  } else if (WIFSIGNALED(raw)) {
    status.kind = ExitKind::kSignaled;
    status.sig = WTERMSIG(raw);
  }
  return status;
}

ExitStatus wait_exit(pid_t pid, const Deadline& deadline) {
  for (;;) {
    ExitStatus status = poll_exit(pid);
    if (status.kind != ExitKind::kRunning) return status;
    if (deadline.expired()) return status;  // kRunning: caller may kill
    // Sleep a tick without pulling in clock headers: poll with no fds.
    // A signal may cut the tick short (EINTR); the loop re-polls waitpid
    // either way, so no explicit retry is needed beyond re-entering.
    if (::poll(nullptr, 0, 2) < 0 && errno != EINTR) {
      throw_io("poll", -1, errno);
    }
  }
}

void kill_process(pid_t pid, int sig) {
  if (pid <= 0) return;  // never signal process groups by accident
  ::kill(pid, sig);      // failure (ESRCH) means it is already gone
}

void ignore_sigpipe() {
  struct sigaction action;
  std::memset(&action, 0, sizeof action);
  action.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &action, nullptr);
}

void sleep_seconds(double seconds, CancellationToken* cancel) {
  const Deadline deadline = Deadline::in(seconds < 0 ? 0 : seconds);
  while (!deadline.expired()) {
    if (cancel != nullptr) cancel->check();
    // With a token, wait in <=10ms slices so a cancel mid-backoff lands
    // within the latency budget; without one, sleep the rest in one poll.
    int timeout = poll_timeout_ms(deadline);
    if (cancel != nullptr && (timeout < 0 || timeout > 10)) timeout = 10;
    if (::poll(nullptr, 0, timeout) < 0 && errno != EINTR) {
      throw_io("poll", -1, errno);
    }
  }
  if (cancel != nullptr) cancel->check();
}

void set_spawn_failures_for_test(int n) { g_spawn_failures_for_test = n; }

void set_close_range_unavailable_for_test(bool unavailable) {
  g_close_range_unavailable_for_test = unavailable;
}

}  // namespace ldlb::ipc
