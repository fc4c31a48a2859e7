// The fleet's determinism and fault-tolerance contract (fault/fleet.hpp):
// the certificate is byte-identical to plain run_adversary across worker
// counts, across kill-and-respawn histories, across crash/resume cycles and
// when fork(2) refuses and the run degrades in-process; exhausting a
// respawn budget fails permanently as WorkerLost / RunStatus::kWorkerLost
// carrying the right incident kind. A resume through the fleet reports the
// same ResumeInfo as the in-process engine, because both run the same loop.
// At the sizes the bench runs (Δ 13–16) a fleet run finishes under a
// wall-clock bound with two requests a level, and a worker that stops
// reading is exactly one write-hang incident.
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <filesystem>
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
#include "ldlb/recover/cert_log.hpp"
#include "ldlb/recover/resumable_adversary.hpp"
#include "ldlb/util/atomic_file.hpp"
#include "ldlb/util/error.hpp"
#include "ldlb/util/ipc.hpp"
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

std::string fleet_bytes(int delta, const std::string& log_name,
                        FleetOptions options, FleetReport* report = nullptr) {
  CertificateLog log{temp_path(log_name)};
  log.remove();
  const LowerBoundCertificate cert =
      run_adversary_fleet(factory_for(delta), delta, log, options, report);
  log.remove();
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
                          std::to_string(workers) + ".ldcl",
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
      fleet_bytes(delta, "fleet_chaos.ldcl", options, &report);
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
  CertificateLog log{temp_path("fleet_resume.ldcl")};
  log.remove();

  FleetOptions crashing;
  crashing.workers = 2;
  crashing.on_checkpoint = crash_at_level(2);
  FleetReport crash_report;
  EXPECT_THROW((void)run_adversary_fleet(factory_for(delta), delta, log,
                                         crashing, &crash_report),
               FaultInjected);
  EXPECT_EQ(crash_report.status, RunStatus::kFaultInjected);
  EXPECT_GE(crash_report.resume.computed_levels, 3);  // levels 0..2 durable

  FleetOptions resuming;
  resuming.workers = 2;
  FleetReport resume_report;
  const LowerBoundCertificate cert = run_adversary_fleet(
      factory_for(delta), delta, log, resuming, &resume_report);
  EXPECT_EQ(certificate_to_string(cert), reference);
  EXPECT_EQ(resume_report.resume.loaded_levels, 3);
  EXPECT_EQ(resume_report.resume.trusted_levels, 3)
      << resume_report.resume.discard_reason;
  EXPECT_LT(resume_report.resume.computed_levels, delta - 1);
  log.remove();
}

TEST(FleetDeterminism, SpawnRefusalDegradesToInProcessEngine) {
  const int delta = 5;
  const std::string reference = reference_bytes(delta);

  FleetOptions options;
  options.workers = 2;
  ipc::set_spawn_failures_for_test(1);  // the very first spawn refuses
  FleetReport report;
  const std::string got =
      fleet_bytes(delta, "fleet_degrade.ldcl", options, &report);
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

  CertificateLog log{temp_path("fleet_lost.ldcl")};
  log.remove();
  FleetReport report;
  try {
    (void)run_adversary_fleet(factory_for(delta), delta, log, options,
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
  // The per-level supervision saw the loss as permanent: one attempt,
  // classified, never retried.
  ASSERT_FALSE(report.resume.supervision.attempts.empty());
  EXPECT_EQ(report.resume.supervision.attempts.back().status,
            RunStatus::kWorkerLost);
  log.remove();
}

// Every worker is SIGKILLed at every level past the base case, and every
// loss must be survived by respawn-and-replay with identical bytes.
TEST(FleetDeterminism, EveryWorkerKilledEveryLevel) {
  const int delta = 5;
  const std::string reference = reference_bytes(delta);
  FleetOptions options;
  options.workers = 2;
  options.backoff_base_seconds = 0.001;
  options.max_respawns_per_level = 4;  // two losses per level, headroom
  options.on_level = [](int level, const std::vector<pid_t>& pids) {
    if (level < 1) return;
    for (const pid_t pid : pids) ipc::kill_process(pid);
  };
  FleetReport report;
  const std::string got =
      fleet_bytes(delta, "fleet_killall.ldcl", options, &report);
  EXPECT_EQ(got, reference);
  EXPECT_EQ(report.status, RunStatus::kOk) << report.to_string();
  EXPECT_EQ(report.transport, "pipe");
  EXPECT_GT(report.respawns, 0) << report.to_string();
  EXPECT_GT(report.requests_replayed, 0) << report.to_string();
  ASSERT_FALSE(report.incidents.empty());
  for (const WorkerIncident& incident : report.incidents) {
    EXPECT_TRUE(incident.respawned) << incident.to_string();
  }
}

// Resumes the log at `source` twice, each from its own copy: in-process and
// through a 2-worker fleet. Both run the one resumable loop, so they must
// agree on the bytes, on the repaired log and on everything the ResumeInfo
// reports (the recovery path aside, which names each copy).
void expect_one_resume_contract(int delta, const std::string& source,
                                const std::string& reference) {
  const std::string bytes = read_file(source);
  const std::string in_path = temp_path("contract_in.ldcl");
  const std::string fleet_path = temp_path("contract_fleet.ldcl");
  write_file_atomic(in_path, bytes);
  write_file_atomic(fleet_path, bytes);

  SeqColorPacking algorithm{delta};
  CertificateLog in_log{in_path};
  ResumeInfo in;
  const std::string in_bytes = certificate_to_string(
      run_adversary_resumable(algorithm, delta, in_log, {}, &in));

  CertificateLog fleet_log{fleet_path};
  FleetOptions options;
  options.workers = 2;
  FleetReport report;
  const std::string fleet_bytes = certificate_to_string(run_adversary_fleet(
      factory_for(delta), delta, fleet_log, options, &report));
  const ResumeInfo& fleet = report.resume;

  EXPECT_EQ(in_bytes, reference);
  EXPECT_EQ(fleet_bytes, in_bytes);
  EXPECT_EQ(read_file(fleet_path), read_file(in_path));
  EXPECT_EQ(report.transport, "pipe") << report.to_string();
  EXPECT_EQ(fleet.loaded_levels, in.loaded_levels);
  EXPECT_EQ(fleet.trusted_levels, in.trusted_levels);
  EXPECT_EQ(fleet.computed_levels, in.computed_levels);
  EXPECT_EQ(fleet.discard_reason, in.discard_reason);
  EXPECT_EQ(fleet.recovery.file_found, in.recovery.file_found);
  EXPECT_EQ(fleet.recovery.complete, in.recovery.complete);
  EXPECT_EQ(fleet.recovery.levels_loaded, in.recovery.levels_loaded);
  EXPECT_EQ(fleet.recovery.drop_reason, in.recovery.drop_reason);
  EXPECT_EQ(fleet.recovery.drop_line, in.recovery.drop_line);
  EXPECT_EQ(fleet.supervision.attempts.size(), in.supervision.attempts.size());
  in_log.remove();
  fleet_log.remove();
}

// `g` with one edge other than `keep` recoloured to the colour of another
// edge at its endpoint: an improper colouring the algorithm refuses to run
// on, with the witness loop `keep` untouched.
Multigraph with_clashing_colour(const Multigraph& g, EdgeId keep) {
  Multigraph out(g.node_count());
  bool clashed = false;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto& ed = g.edge(e);
    Color colour = ed.color;
    for (EdgeId f = 0; !clashed && e != keep && f < g.edge_count(); ++f) {
      const auto& fd = g.edge(f);
      if (f != e && (fd.u == ed.u || fd.v == ed.u) && fd.color != colour) {
        colour = fd.color;
        clashed = true;
      }
    }
    out.add_edge(ed.u, ed.v, colour);
  }
  return out;
}

TEST(ResumeContract, InProcessAndFleetResumeIdentically) {
  const int delta = 7;
  SeqColorPacking algorithm{delta};
  const LowerBoundCertificate chain = run_adversary(algorithm, delta);
  const std::string reference = certificate_to_string(chain);
  const std::string source = temp_path("contract_source.ldcl");

  // A crash right after level k is checkpointed (k = Δ-2: after the last).
  for (int k = 0; k <= delta - 2; ++k) {
    SCOPED_TRACE("crash after level " + std::to_string(k));
    CertificateLog log{source};
    log.remove();
    ResumeOptions crashing;
    crashing.on_checkpoint = crash_at_level(k);
    EXPECT_THROW((void)run_adversary_resumable(algorithm, delta, log,
                                               crashing),
                 FaultInjected);
    expect_one_resume_contract(delta, source, reference);
  }

  // A complete log whose level j carries a forged weight: its checksums
  // verify, so only re-validation convicts it.
  for (std::size_t j = 0; j < chain.levels.size(); ++j) {
    SCOPED_TRACE("forged level " + std::to_string(j));
    LowerBoundCertificate forged = chain;
    forged.levels[j].g_weight = forged.levels[j].g_weight + Rational(1, 7);
    write_file_atomic(source, CertificateLog::serialize(forged));
    expect_one_resume_contract(delta, source, reference);
  }

  // A complete log whose level j stores an improperly coloured G: the
  // validator's re-run of the algorithm throws on it, which makes the
  // level untrusted on either side, never a failed resume.
  for (std::size_t j = 0; j < chain.levels.size(); ++j) {
    SCOPED_TRACE("miscoloured level " + std::to_string(j));
    LowerBoundCertificate forged = chain;
    CertificateLevel& lv = forged.levels[j];
    lv.g = with_clashing_colour(lv.g, lv.g_loop);
    ASSERT_FALSE(lv.g.has_proper_edge_coloring());
    write_file_atomic(source, CertificateLog::serialize(forged));
    expect_one_resume_contract(delta, source, reference);
  }
  CertificateLog{source}.remove();
}

// The sizes the bench runs: at the parent a worker's reply and the next
// request filled the 64 KiB pipes from both ends, and the run blocked
// forever — from Δ=14 at 2 workers, and from Δ=13 at 1 worker, which got
// all three of a level's requests.
constexpr double kLargeRunBoundSeconds = 120.0;

void expect_bounded_fleet_run(int delta, const std::string& reference,
                              FleetOptions options, const std::string& name) {
  SCOPED_TRACE("delta " + std::to_string(delta) + ", " +
               std::to_string(options.workers) + " workers");
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
  expect_bounded_fleet_run(13, reference, options, "fleet_d13_w1.ldcl");
}

TEST(FleetDeterminism, ByteIdenticalAtDelta14And16) {
  for (int delta : {14, 16}) {
    const std::string reference = reference_bytes(delta);
    for (int workers : {1, 2, 4}) {
      FleetOptions options;
      options.workers = workers;
      expect_bounded_fleet_run(delta, reference, options,
                               "fleet_large_d" + std::to_string(delta) +
                                   "_w" + std::to_string(workers) + ".ldcl");
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
    got = fleet_bytes(delta, "fleet_write_hang.ldcl", options, &report);
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
  (void)fleet_bytes(4, "fleet_report.ldcl", options, &report);
  const std::string text = report.to_string();
  EXPECT_NE(text.find("2/2 workers"), std::string::npos) << text;
  EXPECT_NE(text.find("transport pipe"), std::string::npos) << text;
  EXPECT_NE(text.find("status: ok"), std::string::npos) << text;
}

}  // namespace
}  // namespace ldlb
