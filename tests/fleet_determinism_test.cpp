// The fleet's determinism and fault-tolerance contract (fault/fleet.hpp):
// the certificate is byte-identical to plain run_adversary across worker
// counts AND transports (serial / pipe fleet / socket fleet), across
// kill-and-disconnect histories on either transport, across crash/resume
// cycles, and down every step of the degradation ladder
// (socket -> pipe -> in-process); exhausting a respawn budget with
// degradation refused fails permanently as WorkerLost /
// RunStatus::kWorkerLost carrying the right incident kind. At the sizes the
// bench runs (Δ 13–16) a fleet run finishes under a wall-clock bound with
// two requests a level, and a worker that stops reading is exactly one
// write-hang incident.
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ldlb/core/adversary.hpp"
#include "ldlb/core/certificate_io.hpp"
#include "ldlb/fault/fleet.hpp"
#include "ldlb/graph/graph_io.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/recover/snapshot_store.hpp"
#include "ldlb/util/error.hpp"
#include "ldlb/util/ipc.hpp"
#include "ldlb/util/net.hpp"
#include "ldlb/util/rng.hpp"

namespace ldlb {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

AlgorithmFactory factory_for(int delta) {
  return [delta]() { return std::make_unique<SeqColorPacking>(delta); };
}

std::string reference_bytes(int delta) {
  SeqColorPacking algorithm{delta};
  return certificate_to_string(run_adversary(algorithm, delta));
}

std::string fleet_bytes(int delta, const std::string& snapshot_name,
                        FleetOptions options, FleetReport* report = nullptr) {
  SnapshotStore store{temp_path(snapshot_name)};
  store.remove();
  const LowerBoundCertificate cert =
      run_adversary_fleet(factory_for(delta), delta, store, options, report);
  store.remove();
  return certificate_to_string(cert);
}

TEST(FleetDeterminism, ByteIdenticalAcrossWorkerCounts) {
  for (int delta : {4, 5, 6}) {
    const std::string reference = reference_bytes(delta);
    for (int workers : {0, 1, 2, 4}) {
      FleetOptions options;
      options.workers = workers;
      FleetReport report;
      const std::string got =
          fleet_bytes(delta,
                      "fleet_d" + std::to_string(delta) + "_w" +
                          std::to_string(workers) + ".snap",
                      options, &report);
      EXPECT_EQ(got, reference)
          << "delta " << delta << ", workers " << workers;
      EXPECT_EQ(report.status, RunStatus::kOk) << report.to_string();
      EXPECT_EQ(report.workers_spawned, workers);
      EXPECT_TRUE(report.incidents.empty()) << report.to_string();
    }
  }
}

TEST(FleetDeterminism, KilledWorkersRespawnAndBytesDoNotChange) {
  const int delta = 6;
  const std::string reference = reference_bytes(delta);

  FleetOptions options;
  options.workers = 2;
  options.backoff_base_seconds = 0.001;  // keep the soak fast
  Rng rng{20260808};
  options.on_level = [&rng](int level, const std::vector<pid_t>& pids) {
    if (level % 2 != 0 || pids.empty()) return;  // kill on even levels
    const auto victim = static_cast<std::size_t>(
        rng.next_u64() % static_cast<std::uint64_t>(pids.size()));
    ipc::kill_process(pids[victim]);
  };

  FleetReport report;
  const std::string got =
      fleet_bytes(delta, "fleet_chaos.snap", options, &report);
  EXPECT_EQ(got, reference);
  EXPECT_EQ(report.status, RunStatus::kOk) << report.to_string();
  EXPECT_GT(report.respawns, 0) << report.to_string();
  EXPECT_GT(report.requests_replayed, 0) << report.to_string();
  ASSERT_FALSE(report.incidents.empty());
  for (const WorkerIncident& incident : report.incidents) {
    EXPECT_TRUE(incident.respawned) << incident.to_string();
  }
}

TEST(FleetDeterminism, CrashAtCheckpointThenFleetResumeIsByteIdentical) {
  const int delta = 6;
  const std::string reference = reference_bytes(delta);
  SnapshotStore store{temp_path("fleet_resume.snap")};
  store.remove();

  FleetOptions crashing;
  crashing.workers = 2;
  crashing.on_checkpoint = crash_at_level(2);
  FleetReport crash_report;
  EXPECT_THROW((void)run_adversary_fleet(factory_for(delta), delta, store,
                                         crashing, &crash_report),
               FaultInjected);
  EXPECT_EQ(crash_report.status, RunStatus::kFaultInjected);
  EXPECT_GE(crash_report.resume.computed_levels, 3);  // levels 0..2 durable

  FleetOptions resuming;
  resuming.workers = 2;
  FleetReport resume_report;
  const LowerBoundCertificate cert = run_adversary_fleet(
      factory_for(delta), delta, store, resuming, &resume_report);
  EXPECT_EQ(certificate_to_string(cert), reference);
  EXPECT_EQ(resume_report.resume.loaded_levels, 3);
  EXPECT_EQ(resume_report.resume.trusted_levels, 3)
      << resume_report.resume.discard_reason;
  EXPECT_LT(resume_report.resume.computed_levels, delta - 1);
  store.remove();
}

TEST(FleetDeterminism, SpawnRefusalDegradesToInProcessEngine) {
  const int delta = 5;
  const std::string reference = reference_bytes(delta);

  FleetOptions options;
  options.workers = 2;
  ipc::set_spawn_failures_for_test(1);  // the very first spawn refuses
  FleetReport report;
  const std::string got =
      fleet_bytes(delta, "fleet_degrade.snap", options, &report);
  ipc::set_spawn_failures_for_test(0);
  EXPECT_EQ(got, reference);
  EXPECT_EQ(report.status, RunStatus::kOk) << report.to_string();
  EXPECT_TRUE(report.degraded_in_process);
  EXPECT_FALSE(report.degrade_reason.empty());
}

TEST(FleetDeterminism, RespawnBudgetExhaustionIsWorkerLost) {
  const int delta = 5;
  FleetOptions options;
  options.workers = 1;
  options.max_respawns_per_level = 0;  // first incident is fatal
  options.on_level = [](int, const std::vector<pid_t>& pids) {
    for (pid_t pid : pids) ipc::kill_process(pid);
  };

  SnapshotStore store{temp_path("fleet_lost.snap")};
  store.remove();
  FleetReport report;
  try {
    (void)run_adversary_fleet(factory_for(delta), delta, store, options,
                              &report);
    FAIL() << "expected WorkerLost";
  } catch (const WorkerLost& e) {
    EXPECT_EQ(e.incident_kind(), "signal");
    EXPECT_NE(std::string(e.what()).find("respawn budget"),
              std::string::npos);
  }
  EXPECT_EQ(report.status, RunStatus::kWorkerLost);
  ASSERT_FALSE(report.incidents.empty());
  EXPECT_FALSE(report.incidents.back().respawned)
      << report.incidents.back().to_string();
  store.remove();
}

// The sizes the bench runs: at the parent a worker's reply and the next
// request filled the 64 KiB pipes from both ends, and the run blocked
// forever — from Δ=14 at 2 workers, and from Δ=13 at 1 worker, which got
// all three of a level's requests.
constexpr double kLargeRunBoundSeconds = 120.0;

void expect_bounded_fleet_run(int delta, const std::string& reference,
                              FleetOptions options, const std::string& name) {
  SCOPED_TRACE("delta " + std::to_string(delta) + ", " +
               std::to_string(options.workers) + " workers" +
               (options.remotes.empty() ? "" : ", socket"));
  // A hang surfaces as a fatal incident instead of blocking the suite.
  options.reply_deadline_seconds = kLargeRunBoundSeconds;
  options.max_respawns_per_level = 0;
  options.degrade = false;
  FleetReport report;
  const Deadline bound = Deadline::in(kLargeRunBoundSeconds);
  const std::string got = fleet_bytes(delta, name, options, &report);
  EXPECT_FALSE(bound.expired()) << "run took longer than the bound";
  EXPECT_EQ(got, reference);
  EXPECT_EQ(report.status, RunStatus::kOk) << report.to_string();
  EXPECT_TRUE(report.incidents.empty()) << report.to_string();
  // GH plus the one unfolding it selects, per level past the base case.
  EXPECT_EQ(report.requests_sent, 2 * (delta - 2)) << report.to_string();
}

TEST(FleetDeterminism, OneWorkerAtDelta13Completes) {
  const std::string reference = reference_bytes(13);
  FleetOptions options;
  options.workers = 1;
  expect_bounded_fleet_run(13, reference, options, "fleet_d13_w1.snap");
}

TEST(FleetDeterminism, ByteIdenticalAtDelta14And16) {
  for (int delta : {14, 16}) {
    const std::string reference = reference_bytes(delta);
    for (int workers : {1, 2, 4}) {
      FleetOptions options;
      options.workers = workers;
      expect_bounded_fleet_run(delta, reference, options,
                               "fleet_large_d" + std::to_string(delta) +
                                   "_w" + std::to_string(workers) + ".snap");
    }
  }
}

// Sends SIGCONT to `pid` after `seconds` unless destroyed first, so a
// write that blocks on a stopped worker without a deadline ends in failed
// assertions instead of a hung suite.
class ResumeWatchdog {
 public:
  ResumeWatchdog(const std::atomic<pid_t>& pid, double seconds)
      : thread_([this, &pid, seconds] {
          const Deadline give_up = Deadline::in(seconds);
          while (!done_ && !give_up.expired()) ipc::sleep_seconds(0.01);
          if (!done_) ipc::kill_process(pid, SIGCONT);
        }) {}
  ResumeWatchdog(const ResumeWatchdog&) = delete;
  ResumeWatchdog& operator=(const ResumeWatchdog&) = delete;
  ~ResumeWatchdog() {
    done_ = true;
    thread_.join();
  }

 private:
  std::atomic<bool> done_{false};
  std::thread thread_;
};

// The first level of the Δ-chain `cert` whose GH request outgrows a pipe
// of `pipe_bytes`, or -1 when none does.
int first_level_outgrowing(const LowerBoundCertificate& cert,
                           std::size_t pipe_bytes) {
  for (std::size_t i = 1; i < cert.levels.size(); ++i) {
    std::string gh;
    append_graph(gh, plan_adversary_step(cert.levels[i - 1]).gh);
    if (gh.size() > pipe_bytes) return cert.levels[i].level;
  }
  return -1;
}

// A worker stopped (SIGSTOP) before the first level whose GH request
// outgrows its pipe: the write's deadline must fire and the slot be
// revived and replayed, with identical bytes. A pipe holds 16 pages by
// default, so the chain is picked from the page size: 64 KiB with 4 KiB
// pages (Δ=12, level 10, 127 KB), 1 MiB with 64 KiB pages (Δ=15, level
// 13, 1.5 MB).
TEST(FleetDeterminism, StoppedWorkerIsOneWriteHangIncident) {
  const std::size_t pipe_bytes =
      16 * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  int delta = 12;
  int stop_level = -1;
  std::string reference;
  for (; delta <= 16; ++delta) {
    SeqColorPacking algorithm{delta};
    const LowerBoundCertificate cert = run_adversary(algorithm, delta);
    stop_level = first_level_outgrowing(cert, pipe_bytes);
    if (stop_level >= 0) {
      reference = certificate_to_string(cert);
      break;
    }
  }
  if (stop_level < 0) GTEST_SKIP() << "no GH up to Δ=16 outgrows the pipe";

  FleetOptions options;
  options.workers = 1;
  options.backoff_base_seconds = 0.001;
  // Long enough for any reply even in a sanitizer tree under load; the
  // stopped worker's write waits this long before it counts as a hang.
  options.reply_deadline_seconds = 5.0;
  std::atomic<pid_t> stopped{-1};
  options.on_level = [&stopped, stop_level](int level,
                                            const std::vector<pid_t>& pids) {
    if (level != stop_level || pids.empty()) return;
    stopped = pids[0];
    ipc::kill_process(pids[0], SIGSTOP);
  };
  FleetReport report;
  std::string got;
  {
    const ResumeWatchdog watchdog(stopped, 60.0);
    got = fleet_bytes(delta, "fleet_write_hang.snap", options, &report);
  }
  EXPECT_EQ(got, reference);
  EXPECT_EQ(report.status, RunStatus::kOk) << report.to_string();
  ASSERT_EQ(report.incidents.size(), 1u) << report.to_string();
  const WorkerIncident& incident = report.incidents.front();
  EXPECT_EQ(incident.kind, "write-hang") << incident.to_string();
  EXPECT_EQ(incident.level, stop_level) << incident.to_string();
  EXPECT_TRUE(incident.respawned) << incident.to_string();
  EXPECT_EQ(report.respawns, 1) << report.to_string();
  EXPECT_EQ(report.requests_replayed, 1) << report.to_string();
}

TEST(FleetDeterminism, ReportToStringMentionsTheHeadlines) {
  FleetOptions options;
  options.workers = 2;
  FleetReport report;
  (void)fleet_bytes(4, "fleet_report.snap", options, &report);
  const std::string text = report.to_string();
  EXPECT_NE(text.find("2/2 workers"), std::string::npos) << text;
  EXPECT_NE(text.find("transport pipe"), std::string::npos) << text;
  EXPECT_NE(text.find("status: ok"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Socket fleet: worker daemons on localhost, coordinator over TCP.
// ---------------------------------------------------------------------------

// A forked worker daemon on an ephemeral localhost port, killed and reaped
// on destruction.
class DaemonGuard {
 public:
  explicit DaemonGuard(int delta) {
    net::Listener listener = net::Listener::on("127.0.0.1", 0);
    port_ = listener.port();
    pid_ = ipc::spawn_child([&listener, delta]() {
      return run_fleet_daemon(factory_for(delta), delta, listener);
    });
    // The parent's copy of the listening socket; the daemon owns its own.
    listener.close();
  }
  DaemonGuard(const DaemonGuard&) = delete;
  DaemonGuard& operator=(const DaemonGuard&) = delete;
  ~DaemonGuard() {
    ipc::kill_process(pid_);
    (void)ipc::wait_exit(pid_, Deadline::in(10.0));
  }

  [[nodiscard]] RemoteEndpoint endpoint() const {
    return {"127.0.0.1", port_};
  }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

TEST(SocketFleet, ByteIdenticalAcrossTransportsAndWorkerCounts) {
  for (int delta : {4, 5, 6}) {
    const std::string reference = reference_bytes(delta);
    DaemonGuard daemon_a(delta);
    DaemonGuard daemon_b(delta);
    for (int workers : {1, 2, 4}) {
      FleetOptions options;
      options.workers = workers;
      options.remotes = {daemon_a.endpoint(), daemon_b.endpoint()};
      FleetReport report;
      const std::string got =
          fleet_bytes(delta,
                      "socket_d" + std::to_string(delta) + "_w" +
                          std::to_string(workers) + ".snap",
                      options, &report);
      EXPECT_EQ(got, reference)
          << "delta " << delta << ", workers " << workers;
      EXPECT_EQ(report.status, RunStatus::kOk) << report.to_string();
      EXPECT_EQ(report.transport, "socket") << report.to_string();
      EXPECT_TRUE(report.degrades.empty()) << report.to_string();
      EXPECT_TRUE(report.incidents.empty()) << report.to_string();
    }
  }
}

// Every worker's link is severed at every level — SIGKILL under the pipe
// transport, an abortive RST close under the socket transport — and every
// loss must be survived by reconnect-and-replay with identical bytes.
TEST(SocketFleet, EveryWorkerDisconnectedEveryLevelOnBothTransports) {
  const int delta = 5;
  const std::string reference = reference_bytes(delta);
  DaemonGuard daemon(delta);

  for (const bool socket : {true, false}) {
    FleetOptions options;
    options.workers = 2;
    options.backoff_base_seconds = 0.001;
    options.max_respawns_per_level = 4;  // two losses per level, headroom
    if (socket) options.remotes = {daemon.endpoint()};
    options.on_level_drop = [](int level, int slots,
                               const std::function<void(int)>& drop) {
      if (level < 1) return;
      for (int s = 0; s < slots; ++s) drop(s);
    };
    FleetReport report;
    const std::string got = fleet_bytes(
        delta, socket ? "socket_dropall.snap" : "pipe_dropall.snap", options,
        &report);
    EXPECT_EQ(got, reference) << (socket ? "socket" : "pipe");
    EXPECT_EQ(report.status, RunStatus::kOk) << report.to_string();
    EXPECT_EQ(report.transport, socket ? "socket" : "pipe");
    EXPECT_GT(report.respawns, 0) << report.to_string();
    EXPECT_GT(report.requests_replayed, 0) << report.to_string();
    ASSERT_FALSE(report.incidents.empty());
    for (const WorkerIncident& incident : report.incidents) {
      EXPECT_TRUE(incident.respawned) << incident.to_string();
      if (socket) {
        EXPECT_EQ(incident.kind, "disconnect") << incident.to_string();
      }
    }
  }
}

TEST(SocketFleet, TwoWorkersAtDelta14Complete) {
  const int delta = 14;
  const std::string reference = reference_bytes(delta);
  DaemonGuard daemon(delta);
  FleetOptions options;
  options.workers = 2;
  options.remotes = {daemon.endpoint()};
  expect_bounded_fleet_run(delta, reference, options, "socket_d14_w2.snap");
}

TEST(SocketFleet, ExhaustedRemotesDegradeToPipeWithIdenticalBytes) {
  const int delta = 5;
  const std::string reference = reference_bytes(delta);
  // Bind-then-close guarantees a port that refuses every connect.
  int dead_port = 0;
  {
    net::Listener listener = net::Listener::on("127.0.0.1", 0);
    dead_port = listener.port();
  }

  FleetOptions options;
  options.workers = 2;
  options.backoff_base_seconds = 0.001;
  options.connect_timeout_seconds = 1.0;
  options.remotes = {{"127.0.0.1", dead_port}};
  FleetReport report;
  const std::string got =
      fleet_bytes(delta, "socket_degrade.snap", options, &report);
  EXPECT_EQ(got, reference);
  EXPECT_EQ(report.status, RunStatus::kOk) << report.to_string();
  EXPECT_EQ(report.transport, "pipe") << report.to_string();
  ASSERT_FALSE(report.degrades.empty());
  EXPECT_NE(report.degrades.front().find("socket -> pipe"),
            std::string::npos)
      << report.degrades.front();
  ASSERT_FALSE(report.incidents.empty());
  EXPECT_EQ(report.incidents.front().kind, "connect")
      << report.incidents.front().to_string();
  EXPECT_EQ(report.incidents.front().level, -2  /* connect-setup bucket */)
      << report.incidents.front().to_string();
}

TEST(SocketFleet, FullLadderSocketToPipeToInProcessStillCertifies) {
  const int delta = 4;
  const std::string reference = reference_bytes(delta);
  int dead_port = 0;
  {
    net::Listener listener = net::Listener::on("127.0.0.1", 0);
    dead_port = listener.port();
  }

  FleetOptions options;
  options.workers = 1;
  options.backoff_base_seconds = 0.001;
  options.max_respawns_per_level = 1;
  options.remotes = {{"127.0.0.1", dead_port}};
  // After the socket transport exhausts, the pipe transport's first fork
  // refuses too: the ladder must land on the in-process engine.
  ipc::set_spawn_failures_for_test(1);
  FleetReport report;
  const std::string got =
      fleet_bytes(delta, "socket_ladder.snap", options, &report);
  ipc::set_spawn_failures_for_test(0);
  EXPECT_EQ(got, reference);
  EXPECT_EQ(report.status, RunStatus::kOk) << report.to_string();
  EXPECT_EQ(report.transport, "in-process") << report.to_string();
  EXPECT_TRUE(report.degraded_in_process);
  ASSERT_GE(report.degrades.size(), 2u) << report.to_string();
  EXPECT_NE(report.degrades[0].find("socket -> pipe"), std::string::npos);
  EXPECT_NE(report.degrades[1].find("pipe -> in-process"),
            std::string::npos);
}

TEST(SocketFleet, ExhaustedRemotesWithDegradeRefusedIsWorkerLost) {
  const int delta = 4;
  int dead_port = 0;
  {
    net::Listener listener = net::Listener::on("127.0.0.1", 0);
    dead_port = listener.port();
  }

  FleetOptions options;
  options.workers = 1;
  options.backoff_base_seconds = 0.001;
  options.max_respawns_per_level = 1;
  options.remotes = {{"127.0.0.1", dead_port}};
  options.degrade = false;
  SnapshotStore store{temp_path("socket_lost.snap")};
  store.remove();
  FleetReport report;
  try {
    (void)run_adversary_fleet(factory_for(delta), delta, store, options,
                              &report);
    FAIL() << "expected WorkerLost";
  } catch (const WorkerLost& e) {
    EXPECT_EQ(e.incident_kind(), "connect");
  }
  EXPECT_EQ(report.status, RunStatus::kWorkerLost);
  EXPECT_EQ(report.transport, "socket");
  store.remove();
}

TEST(SocketFleet, WrongJobDaemonIsAHandshakeIncidentThenDegrades) {
  const int delta = 4;
  const std::string reference = reference_bytes(delta);
  // A live daemon serving a *different* delta: the fingerprints differ, so
  // every connect ends in a typed handshake rejection, never sharded work.
  DaemonGuard foreign(delta + 1);

  FleetOptions options;
  options.workers = 1;
  options.backoff_base_seconds = 0.001;
  options.max_respawns_per_level = 1;
  options.remotes = {foreign.endpoint()};
  FleetReport report;
  const std::string got =
      fleet_bytes(delta, "socket_handshake.snap", options, &report);
  EXPECT_EQ(got, reference);
  EXPECT_EQ(report.transport, "pipe") << report.to_string();
  ASSERT_FALSE(report.incidents.empty());
  EXPECT_EQ(report.incidents.front().kind, "handshake")
      << report.incidents.front().to_string();
}

TEST(SocketFleet, SilentPeerIsAStaleHeartbeatIncident) {
  const int delta = 4;
  // A fake daemon that answers the handshake and then stops breathing: no
  // heartbeats, no replies. The coordinator must classify the worker as
  // stale within the staleness window, not wait out the reply deadline.
  net::Listener listener = net::Listener::on("127.0.0.1", 0);
  const int port = listener.port();
  std::thread fake_peer([&listener, delta] {
    std::optional<net::FrameChannel> peer =
        listener.accept_channel(Deadline::in(10.0));
    if (!peer.has_value()) return;
    net::server_handshake(*peer, fleet_fingerprint(delta, "SeqColorPacking"),
                          Deadline::in(10.0));
    // Swallow requests silently until the coordinator hangs up.
    while (peer->recv(Deadline::in(10.0)).frame.status ==
           ipc::FrameStatus::kOk) {
    }
  });

  FleetOptions options;
  options.workers = 1;
  options.max_respawns_per_level = 0;  // first incident is fatal
  options.remotes = {{"127.0.0.1", port}};
  options.stale_after_seconds = 0.1;
  options.reply_deadline_seconds = 60.0;  // far beyond the stale window
  options.degrade = false;
  SnapshotStore store{temp_path("socket_stale.snap")};
  store.remove();
  FleetReport report;
  const Deadline guard = Deadline::in(30.0);
  try {
    (void)run_adversary_fleet(factory_for(delta), delta, store, options,
                              &report);
    FAIL() << "expected WorkerLost";
  } catch (const WorkerLost& e) {
    EXPECT_EQ(e.incident_kind(), "stale-heartbeat") << e.what();
  }
  EXPECT_FALSE(guard.expired()) << "stale detection waited out the deadline";
  EXPECT_EQ(report.status, RunStatus::kWorkerLost);
  fake_peer.join();
  store.remove();
}

TEST(SocketFleet, FingerprintSeparatesJobs) {
  EXPECT_NE(fleet_fingerprint(4, "SeqColorPacking"),
            fleet_fingerprint(5, "SeqColorPacking"));
  EXPECT_NE(fleet_fingerprint(4, "SeqColorPacking"),
            fleet_fingerprint(4, "other-algorithm"));
  EXPECT_EQ(fleet_fingerprint(6, "a"), fleet_fingerprint(6, "a"));
}

}  // namespace
}  // namespace ldlb
