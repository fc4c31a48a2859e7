// Dependency-free inter-process plumbing for the adversary fleet.
//
// The fleet (fault/fleet.hpp) runs each adversary step's two simulations
// (the mix GH, then the one unfolding it selects) and the re-validation of
// resumed levels in forked worker processes. Everything those
// processes need to talk — and to die without taking the run down — lives
// here, and *only* here: the raw-process lint rule confines fork(2),
// pipe(2), kill(2), waitpid(2) and signal handling to this module so every
// process-control site in the tree is audited.
//
//   * Framing: length-prefixed messages over a pipe, each carrying a magic
//     tag and an FNV-1a checksum of its payload. A frame damaged in any way
//     — bad magic, oversized length, checksum mismatch, torn tail from a
//     killed writer — reads as kCorrupt/kEof, never as silent garbage.
//   * Deadlines: reads are poll(2)-driven against a monotonic Deadline
//     (util/cancellation.hpp), so a hung peer surfaces as kTimeout instead
//     of blocking the coordinator forever; writes to the coordinator's
//     non-blocking ends wait for POLLOUT under a Deadline too, so a peer
//     that stopped reading surfaces as an ETIMEDOUT IoError.
//   * Process lifecycle: spawn_worker forks a child that runs a callback
//     and _exit()s; poll_exit/wait_exit reap via waitpid and classify the
//     exit (clean code vs terminating signal); kill_process delivers
//     signals. The child switches the thread pool into post-fork serial
//     mode first (ThreadPool::note_forked_child) because the parent's pool
//     threads do not exist in the child.
//
// Frames deliberately carry *text* payloads (the repo's line-oriented
// formats) — the protocol stays diff-able and independent of host byte
// order; only the fixed 20-byte header is binary (little-endian).
#pragma once

#include <sys/types.h>

#include <functional>
#include <string>
#include <string_view>

#include "ldlb/util/cancellation.hpp"

namespace ldlb::ipc {

/// How reading one frame ended.
enum class FrameStatus {
  kOk,       ///< a complete, checksummed frame was read
  kEof,      ///< the peer closed the pipe (or died) before/mid frame
  kTimeout,  ///< the deadline passed with the frame still incomplete
  kCorrupt,  ///< bad magic, implausible length, or checksum mismatch
};

[[nodiscard]] const char* to_string(FrameStatus status);

/// One read attempt: status plus the payload (kOk only) and a diagnostic
/// detail naming the defect (kCorrupt/kEof/kTimeout).
struct FrameResult {
  FrameStatus status = FrameStatus::kEof;
  std::string payload;
  std::string detail;
};

/// Hard cap on a single frame (certificate levels are kilobytes; anything
/// near this is a corrupt length field, not data).
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

/// Serialises one frame (20-byte header + payload) into a byte string —
/// exactly what write_frame puts on the wire, so tests can corrupt or
/// truncate the raw bytes before they hit a descriptor.
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR. When a
/// non-blocking fd's buffer is full, waits in poll(2) for POLLOUT until
/// `deadline` (a default Deadline never expires) and then throws IoError
/// with ETIMEDOUT; the stream is torn mid-write, so the caller must drop
/// the peer. Other failures throw IoError with their errno (EPIPE when the
/// reader is gone). On a blocking fd a write blocks until it completes.
void write_all(int fd, std::string_view bytes, const Deadline& deadline = {});

/// Writes one frame (header + payload) to `fd` through write_all, under
/// `deadline`. Throws IoError as write_all does — callers treat that as a
/// lost (EPIPE) or hung (ETIMEDOUT) peer.
void write_frame(int fd, std::string_view payload,
                 const Deadline& deadline = {});

/// Reads one complete frame from `fd`, polling until `deadline` (a default
/// Deadline never expires, i.e. blocks indefinitely). Never throws on peer
/// damage — EOF, timeouts and corruption come back as classified statuses;
/// only a genuinely broken local call (e.g. EBADF) throws IoError.
[[nodiscard]] FrameResult read_frame(int fd, const Deadline& deadline = {});

/// A connected worker process as the coordinator sees it.
struct WorkerProcess {
  pid_t pid = -1;
  int to_fd = -1;    ///< coordinator -> worker requests
  int from_fd = -1;  ///< worker -> coordinator responses

  [[nodiscard]] bool valid() const { return pid > 0; }
};

/// Body run inside the forked child: read requests from `in_fd`, write
/// responses to `out_fd`, return the process exit code.
using WorkerMain = std::function<int(int in_fd, int out_fd)>;

/// Forks a worker connected by a pipe pair. The child enters post-fork
/// serial thread-pool mode, closes every fd but stdio and its own two pipe
/// ends (so it holds no earlier worker's coordinator ends, and each worker
/// sees EOF as soon as its coordinator closes its request pipe), runs
/// `main`, and _exit()s with its return value (an escaping exception exits
/// with code 125 after printing the reason). The closing takes
/// close_range(2); where that is missing (Linux before 5.9) or refused
/// (seccomp), one close(2) per fd below the RLIMIT_NOFILE soft limit. The
/// parent closes the child's ends, makes its own two ends non-blocking
/// (reads and writes on them then wait in poll(2) under their Deadline)
/// and returns the handle. Throws IoError when pipe(2)/fork(2) refuse —
/// the fleet degrades to the in-process engine on that, mirroring
/// ThreadPool::construction_error().
[[nodiscard]] WorkerProcess spawn_worker(const WorkerMain& main);

/// Closes both coordinator-side descriptors (idempotent).
void close_worker_fds(WorkerProcess& worker);

/// Classified child exit.
enum class ExitKind {
  kRunning,   ///< still alive (poll_exit) / deadline passed (wait_exit)
  kExited,    ///< _exit()/return; `code` holds the exit status
  kSignaled,  ///< killed by a signal; `sig` holds it (e.g. SIGKILL)
};

[[nodiscard]] const char* to_string(ExitKind kind);

struct ExitStatus {
  ExitKind kind = ExitKind::kRunning;
  int code = 0;
  int sig = 0;

  /// "exited(3)", "signaled(SIGKILL)", "running".
  [[nodiscard]] std::string to_string() const;
};

/// Non-blocking reap: waitpid(WNOHANG). kRunning when the child is alive.
/// A reaped status is final — the pid is gone afterwards.
[[nodiscard]] ExitStatus poll_exit(pid_t pid);

/// Reaps with a deadline, polling waitpid; kRunning on timeout (the child
/// is then still un-reaped and may be killed and reaped again).
[[nodiscard]] ExitStatus wait_exit(pid_t pid, const Deadline& deadline);

/// Sends `sig` (default SIGKILL) to the process; no-op on dead pids.
void kill_process(pid_t pid, int sig = 9);

/// Ignores SIGPIPE process-wide (idempotent) so a write to a dead worker's
/// pipe fails with EPIPE instead of killing the coordinator. Called by
/// spawn_worker on both sides.
void ignore_sigpipe();

/// Sleeps for `seconds` (>= 0) on the monotonic clock via poll(2) — the
/// fleet's backoff timer. Lives here so process-control call sites stay
/// confined to this module. When `cancel` is given, the wait is sliced into
/// short polls and the token is checked between them, so a cancel landing
/// mid-backoff throws Cancelled within ~10ms instead of sleeping out the
/// whole geometric wait.
void sleep_seconds(double seconds, CancellationToken* cancel = nullptr);

/// Test seam: the next `n` spawn_worker calls throw IoError as if fork(2)
/// had refused, exercising the fleet's degradation path. Not thread-safe;
/// tests only.
void set_spawn_failures_for_test(int n);

/// Test seam: while set, spawn_worker's child closes its inherited fds one
/// at a time, as on a kernel without close_range(2). Not thread-safe; tests
/// only.
void set_close_range_unavailable_for_test(bool unavailable);

}  // namespace ldlb::ipc
