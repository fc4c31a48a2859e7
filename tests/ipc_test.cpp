// Tests for util/ipc: frame integrity under damage (truncation, bit flips,
// timeouts, dead peers), worker lifecycle (spawn / echo / clean exit /
// SIGKILL classification / no inherited sibling pipe ends), and the
// spawn-failure test seam the fleet's degradation path hangs off.
#include <unistd.h>

#include <csignal>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ldlb/util/error.hpp"
#include "ldlb/util/ipc.hpp"

namespace ldlb::ipc {
namespace {

// A connected pipe whose ends close exactly once.
struct Pipe {
  int read_fd = -1;
  int write_fd = -1;

  Pipe() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::pipe(fds), 0);
    read_fd = fds[0];
    write_fd = fds[1];
  }
  ~Pipe() {
    close_read();
    close_write();
  }
  void close_read() {
    if (read_fd >= 0) ::close(read_fd);
    read_fd = -1;
  }
  void close_write() {
    if (write_fd >= 0) ::close(write_fd);
    write_fd = -1;
  }
};

TEST(IpcFrames, RoundTripsPayloadsOfManySizes) {
  Pipe p;
  // Largest payload stays under the 64 KiB pipe capacity: with no reader
  // draining concurrently, a bigger frame would block write_frame forever.
  const std::vector<std::string> payloads = {
      "", "x", std::string("run 0 64\n") + "3 0 1\n0 1\n",
      std::string(40000, 'w')};
  for (const std::string& payload : payloads) {
    write_frame(p.write_fd, payload);
    const FrameResult got = read_frame(p.read_fd);
    ASSERT_EQ(got.status, FrameStatus::kOk) << got.detail;
    EXPECT_EQ(got.payload, payload);
  }
}

TEST(IpcFrames, BackToBackFramesStayDelimited) {
  Pipe p;
  write_frame(p.write_fd, "first");
  write_frame(p.write_fd, "second");
  EXPECT_EQ(read_frame(p.read_fd).payload, "first");
  EXPECT_EQ(read_frame(p.read_fd).payload, "second");
}

TEST(IpcFrames, ClosedWriterReadsAsEof) {
  Pipe p;
  p.close_write();
  const FrameResult got = read_frame(p.read_fd);
  EXPECT_EQ(got.status, FrameStatus::kEof);
}

TEST(IpcFrames, TornHeaderAndTornPayloadReadAsCorrupt) {
  // A peer that dies mid-frame leaves a prefix; unlike a clean close before
  // any bytes (kEof), a torn frame is classified kCorrupt.
  {
    Pipe p;
    ASSERT_EQ(::write(p.write_fd, "LDF1\x05", 5), 5);  // header cut short
    p.close_write();
    EXPECT_EQ(read_frame(p.read_fd).status, FrameStatus::kCorrupt);
  }
  {
    Pipe p;
    write_frame(p.write_fd, "a payload that will lose its tail");
    std::string raw(200, '\0');
    const ssize_t n = ::read(p.read_fd, raw.data(), raw.size());
    ASSERT_GT(n, 25);
    Pipe torn;
    ASSERT_EQ(::write(torn.write_fd, raw.data(), static_cast<size_t>(n - 5)),
              n - 5);
    torn.close_write();
    EXPECT_EQ(read_frame(torn.read_fd).status, FrameStatus::kCorrupt);
  }
}

TEST(IpcFrames, BadMagicAndFlippedPayloadByteReadAsCorrupt) {
  {
    Pipe p;
    const std::string junk = "this is not a frame header at all......";
    ASSERT_EQ(::write(p.write_fd, junk.data(), junk.size()),
              static_cast<ssize_t>(junk.size()));
    const FrameResult got = read_frame(p.read_fd);
    EXPECT_EQ(got.status, FrameStatus::kCorrupt);
    EXPECT_NE(got.detail.find("magic"), std::string::npos) << got.detail;
  }
  {
    Pipe p;
    write_frame(p.write_fd, "checksummed payload");
    std::string raw(200, '\0');
    const ssize_t n = ::read(p.read_fd, raw.data(), raw.size());
    ASSERT_GT(n, 20);
    raw[static_cast<size_t>(n) - 1] ^= 0x40;  // flip a payload bit
    Pipe tampered;
    ASSERT_EQ(::write(tampered.write_fd, raw.data(), static_cast<size_t>(n)),
              n);
    const FrameResult got = read_frame(tampered.read_fd);
    EXPECT_EQ(got.status, FrameStatus::kCorrupt);
    EXPECT_NE(got.detail.find("checksum"), std::string::npos) << got.detail;
  }
}

TEST(IpcFrames, SilentPeerReadsAsTimeoutAndStreamSurvives) {
  Pipe p;
  const FrameResult got = read_frame(p.read_fd, Deadline::in(0.05));
  EXPECT_EQ(got.status, FrameStatus::kTimeout);
  // The stream is still usable: nothing was consumed.
  write_frame(p.write_fd, "late but intact");
  EXPECT_EQ(read_frame(p.read_fd, Deadline::in(5.0)).payload,
            "late but intact");
}

TEST(IpcFrames, WriteToDeadReaderThrowsIoErrorNotSigpipe) {
  ignore_sigpipe();
  Pipe p;
  p.close_read();
  EXPECT_THROW(write_frame(p.write_fd, "nobody is listening"), IoError);
}

TEST(IpcWorkers, EchoChildRoundTripsAndExitsCleanly) {
  WorkerProcess worker = spawn_worker([](int in_fd, int out_fd) {
    while (true) {
      const FrameResult request = read_frame(in_fd);
      if (request.status != FrameStatus::kOk) return 0;
      write_frame(out_fd, "echo: " + request.payload);
    }
  });
  ASSERT_TRUE(worker.valid());
  write_frame(worker.to_fd, "ping");
  EXPECT_EQ(read_frame(worker.from_fd, Deadline::in(30.0)).payload,
            "echo: ping");
  close_worker_fds(worker);
  const ExitStatus status = wait_exit(worker.pid, Deadline::in(30.0));
  EXPECT_EQ(status.kind, ExitKind::kExited);
  EXPECT_EQ(status.code, 0);
  EXPECT_EQ(status.to_string(), "exited(0)");
}

TEST(IpcWorkers, KilledChildIsReapedAsSignaled) {
  WorkerProcess worker = spawn_worker([](int in_fd, int) {
    (void)read_frame(in_fd);  // parked: no request ever arrives
    return 0;
  });
  ASSERT_TRUE(worker.valid());
  EXPECT_EQ(poll_exit(worker.pid).kind, ExitKind::kRunning);
  kill_process(worker.pid);
  const ExitStatus status = wait_exit(worker.pid, Deadline::in(30.0));
  EXPECT_EQ(status.kind, ExitKind::kSignaled);
  EXPECT_EQ(status.sig, SIGKILL);
  EXPECT_EQ(status.to_string().rfind("signaled(", 0), 0u);
  // The pipe now reads as a dead peer.
  EXPECT_EQ(read_frame(worker.from_fd, Deadline::in(5.0)).status,
            FrameStatus::kEof);
  close_worker_fds(worker);
}

TEST(IpcWorkers, ChildNonzeroReturnBecomesExitCode) {
  WorkerProcess worker = spawn_worker([](int, int) { return 7; });
  close_worker_fds(worker);
  const ExitStatus status = wait_exit(worker.pid, Deadline::in(30.0));
  EXPECT_EQ(status.kind, ExitKind::kExited);
  EXPECT_EQ(status.code, 7);
}

// A worker spawned later must not hold an earlier worker's request pipe:
// closing worker 0's to_fd has to reach worker 0 as EOF while worker 1 is
// still running.
void expect_closing_a_request_pipe_ends_only_that_worker() {
  const WorkerMain serve_until_eof = [](int in_fd, int) {
    while (read_frame(in_fd).status == FrameStatus::kOk) {
    }
    return 0;
  };
  WorkerProcess first = spawn_worker(serve_until_eof);
  WorkerProcess second = spawn_worker(serve_until_eof);
  ASSERT_TRUE(first.valid());
  ASSERT_TRUE(second.valid());
  ::close(first.to_fd);
  first.to_fd = -1;
  const ExitStatus status = wait_exit(first.pid, Deadline::in(5.0));
  EXPECT_EQ(status.kind, ExitKind::kExited)
      << "worker 0 saw no EOF: its request pipe is still open elsewhere";
  EXPECT_EQ(poll_exit(second.pid).kind, ExitKind::kRunning);
  if (status.kind == ExitKind::kRunning) kill_process(first.pid);
  close_worker_fds(first);
  close_worker_fds(second);
  (void)wait_exit(first.pid, Deadline::in(30.0));
  const ExitStatus second_status = wait_exit(second.pid, Deadline::in(30.0));
  EXPECT_EQ(second_status.kind, ExitKind::kExited);
  if (second_status.kind == ExitKind::kRunning) {
    kill_process(second.pid);
    (void)wait_exit(second.pid, Deadline::in(30.0));
  }
}

TEST(IpcWorkers, ClosingARequestPipeEndsOnlyThatWorker) {
  expect_closing_a_request_pipe_ends_only_that_worker();
}

// The same without close_range(2), as on a kernel before Linux 5.9: the
// child closes its inherited fds one at a time.
TEST(IpcWorkers, ClosingARequestPipeEndsOnlyThatWorkerWithoutCloseRange) {
  set_close_range_unavailable_for_test(true);
  expect_closing_a_request_pipe_ends_only_that_worker();
  set_close_range_unavailable_for_test(false);
}

TEST(IpcWorkers, SpawnFailureSeamThrowsIoErrorThenRecovers) {
  set_spawn_failures_for_test(2);
  EXPECT_THROW((void)spawn_worker([](int, int) { return 0; }), IoError);
  EXPECT_THROW((void)spawn_worker([](int, int) { return 0; }), IoError);
  WorkerProcess worker = spawn_worker([](int, int) { return 0; });
  ASSERT_TRUE(worker.valid());
  close_worker_fds(worker);
  EXPECT_EQ(wait_exit(worker.pid, Deadline::in(30.0)).kind, ExitKind::kExited);
}

// Which header field a byte offset belongs to, for failure messages.
const char* header_field(std::size_t byte) {
  if (byte < 4) return "magic";        // 'L' 'D' 'F' + the version digit
  if (byte < 12) return "length";      // u64 little-endian payload length
  return "checksum";                   // u64 FNV-1a over the payload
}

TEST(IpcFrames, EveryFlippedHeaderByteReadsAsCorruptNeverGarbage) {
  const std::string frame = encode_frame("fuzz the header");
  ASSERT_GE(frame.size(), 20u);
  for (std::size_t byte = 0; byte < 20; ++byte) {
    Pipe p;
    std::string tampered = frame;
    tampered[byte] = static_cast<char>(tampered[byte] ^ 0xA5);
    ASSERT_EQ(::write(p.write_fd, tampered.data(), tampered.size()),
              static_cast<ssize_t>(tampered.size()));
    p.close_write();
    const FrameResult got = read_frame(p.read_fd, Deadline::in(5.0));
    EXPECT_EQ(got.status, FrameStatus::kCorrupt)
        << "flipped " << header_field(byte) << " byte " << byte
        << " produced " << to_string(got.status);
    EXPECT_TRUE(got.payload.empty())
        << "flipped " << header_field(byte) << " byte " << byte
        << " leaked payload bytes";
  }
}

TEST(IpcFrames, EveryHeaderTruncationReadsAsEofOrCorruptNeverGarbage) {
  const std::string frame = encode_frame("truncate me");
  for (std::size_t keep = 0; keep < 20; ++keep) {
    Pipe p;
    if (keep > 0) {
      ASSERT_EQ(::write(p.write_fd, frame.data(), keep),
                static_cast<ssize_t>(keep));
    }
    p.close_write();
    const FrameResult got = read_frame(p.read_fd, Deadline::in(5.0));
    if (keep == 0) {
      // Clean EOF between frames is the one non-error way a stream ends.
      EXPECT_EQ(got.status, FrameStatus::kEof) << "empty stream";
    } else {
      EXPECT_EQ(got.status, FrameStatus::kCorrupt)
          << "header cut after " << keep << " bytes (mid-"
          << header_field(keep) << ") produced " << to_string(got.status);
    }
    EXPECT_TRUE(got.payload.empty());
  }
}

TEST(IpcFrames, OversizeLengthFieldReadsAsCorruptWithoutAllocating) {
  // A length beyond kMaxFramePayload must be rejected from the header
  // alone — the reader never tries to allocate or drain 2^60 bytes.
  std::string frame = encode_frame("x");
  const std::uint64_t huge = kMaxFramePayload + 1;
  for (std::size_t i = 0; i < 8; ++i) {
    frame[4 + i] = static_cast<char>((huge >> (8 * i)) & 0xFF);
  }
  Pipe p;
  ASSERT_EQ(::write(p.write_fd, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  const FrameResult got = read_frame(p.read_fd, Deadline::in(5.0));
  EXPECT_EQ(got.status, FrameStatus::kCorrupt);
  EXPECT_NE(got.detail.find("length"), std::string::npos) << got.detail;
}

TEST(IpcSleep, CancelledTokenCutsSleepShort) {
  CancellationToken token;
  token.request_cancel("stop backing off");
  const Deadline guard = Deadline::in(5.0);
  EXPECT_THROW(sleep_seconds(30.0, &token), Cancelled);
  EXPECT_FALSE(guard.expired()) << "cancelled sleep still slept";
}

TEST(IpcSleep, DeadlineTokenCutsSleepShort) {
  // A token carrying an expiring deadline interrupts the wait mid-flight:
  // the poll slices cap at 10ms, so the throw lands within the guard.
  CancellationToken token{Deadline::in(0.05)};
  const Deadline guard = Deadline::in(5.0);
  EXPECT_THROW(sleep_seconds(30.0, &token), Cancelled);
  EXPECT_FALSE(guard.expired()) << "deadline cancel still slept";
}

TEST(IpcSleep, UncancelledSleepCompletes) {
  CancellationToken token;
  sleep_seconds(0.01, &token);  // must not throw
  sleep_seconds(0.0, nullptr);
}

TEST(IpcStrings, StatusNamesAreStable) {
  EXPECT_STREQ(to_string(FrameStatus::kOk), "ok");
  EXPECT_STREQ(to_string(FrameStatus::kEof), "eof");
  EXPECT_STREQ(to_string(FrameStatus::kTimeout), "timeout");
  EXPECT_STREQ(to_string(FrameStatus::kCorrupt), "corrupt-frame");
  EXPECT_STREQ(to_string(ExitKind::kRunning), "running");
  EXPECT_STREQ(to_string(ExitKind::kExited), "exited");
  EXPECT_STREQ(to_string(ExitKind::kSignaled), "signaled");
}

}  // namespace
}  // namespace ldlb::ipc
