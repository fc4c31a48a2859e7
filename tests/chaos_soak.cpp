// Chaos soak harness: randomized cancel / crash / env-fault / resume cycles.
//
// Each cycle picks a degree Δ ∈ {4..8}, a global thread count, and one
// interference scenario, applies it to an adversary run checkpointing into
// the append-only certificate log, then resumes with the interference
// cleared and demands the clean run's exact certificate bytes — and a
// repaired log byte-identical to a never-interrupted one. Scenarios:
//
//   cancel     cooperative cancel fired from the checkpoint hook at a
//              random level, then resume;
//   env-fault  EnvFaultPlan armed on a random (fs-op, mode) pair for a
//              random nth occurrence, then resume;
//   torn-tail  a completed log truncated at a random byte, then resume
//              from the salvaged prefix;
//   guarded    a deadline-expired / budget-capped / allocation-starved
//              guarded run must classify (kCancelled / kBudgetExceeded /
//              kEnvFault) without a certificate, then a clean resumable
//              run from scratch;
//   fleet-kill (only with LDLB_CHAOS_KILL=1) a coordinator/worker fleet
//              run with workers SIGKILLed at random levels — every kill
//              must be survived by respawn+replay and the certificate must
//              still match the clean run byte for byte;
//   certlog-kill (only with LDLB_CHAOS_CERTLOG=1) a child process
//              checkpointing into the log is SIGKILLed from its own
//              checkpoint hook, the survivor log is additionally torn
//              mid-record, and the reopen must classify the damage as a
//              recoverable torn tail and resume to the clean run's exact
//              bytes — with the repaired log file byte-identical to a
//              never-crashed one.
//
// The seed is printed up front and on every failure; override it with
// LDLB_CHAOS_SEED and the cycle count with LDLB_CHAOS_CYCLES. Not a gtest
// binary — scripts/ci.sh runs it as its own bounded stage (with
// LDLB_CHAOS_KILL=1 and LDLB_CHAOS_CERTLOG=1 so the fleet and
// writer-kill scenarios are in the rotation).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ldlb/core/adversary.hpp"
#include "ldlb/core/certificate_io.hpp"
#include "ldlb/fault/budget_hooks.hpp"
#include "ldlb/fault/env_fault.hpp"
#include "ldlb/fault/fleet.hpp"
#include "ldlb/fault/guarded_run.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/recover/cert_log.hpp"
#include "ldlb/recover/resumable_adversary.hpp"
#include "ldlb/util/alloc_guard.hpp"
#include "ldlb/util/atomic_file.hpp"
#include "ldlb/util/cancellation.hpp"
#include "ldlb/util/error.hpp"
#include "ldlb/util/ipc.hpp"
#include "ldlb/util/rng.hpp"
#include "ldlb/util/thread_pool.hpp"

namespace {

unsigned long long g_seed = 0;
int g_cycle = -1;
const char* g_scenario = "setup";

[[noreturn]] void fail(const std::string& what) {
  std::fprintf(stderr,
               "chaos_soak: FAILED in cycle %d scenario %s: %s\n"
               "chaos_soak: reproduce with LDLB_CHAOS_SEED=%llu\n",
               g_cycle, g_scenario, what.c_str(), g_seed);
  std::exit(1);
}

void check(bool ok, const std::string& what) {
  if (!ok) fail(what);
}

unsigned long long env_u64(const char* name, unsigned long long fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "chaos_soak: ignoring malformed %s='%s'\n", name, s);
    return fallback;
  }
  return v;
}

}  // namespace

int main() {
  using namespace ldlb;
  namespace fs = std::filesystem;

  g_seed = env_u64("LDLB_CHAOS_SEED", 20140721);
  const int cycles =
      static_cast<int>(env_u64("LDLB_CHAOS_CYCLES", 25));
  const bool fleet_kill = env_u64("LDLB_CHAOS_KILL", 0) != 0;
  const bool certlog_chaos = env_u64("LDLB_CHAOS_CERTLOG", 0) != 0;
  std::printf("chaos_soak: seed=%llu cycles=%d fleet-kill=%s certlog=%s\n",
              g_seed, cycles, fleet_kill ? "on" : "off",
              certlog_chaos ? "on" : "off");

  const std::string log_path =
      (fs::temp_directory_path() /
       ("ldlb_chaos_" + std::to_string(::getpid()) + ".ldcl"))
          .string();

  Rng rng{static_cast<std::uint64_t>(g_seed)};
  std::map<int, std::string> clean_by_delta;
  const auto clean_bytes = [&](int delta) -> const std::string& {
    auto it = clean_by_delta.find(delta);
    if (it == clean_by_delta.end()) {
      SeqColorPacking alg{delta};
      it = clean_by_delta.emplace(delta, certificate_to_string(
                                             run_adversary(alg, delta)))
               .first;
    }
    return it->second;
  };
  const auto resume_and_compare = [&](int delta) {
    SeqColorPacking alg{delta};
    CertificateLog log(log_path);
    ResumeInfo info;
    LowerBoundCertificate chain =
        run_adversary_resumable(alg, delta, log, {}, &info);
    check(certificate_to_string(chain) == clean_bytes(delta),
          "resumed certificate differs from the clean run");
    // The repaired log must be byte-identical to a never-crashed one.
    check(read_file(log_path) == CertificateLog::serialize(chain),
          "repaired certificate log differs from a clean serialization");
  };

  try {
    for (g_cycle = 0; g_cycle < cycles; ++g_cycle) {
      const int delta = 4 + static_cast<int>(rng.next_below(5));
      const int threads = 1 + static_cast<int>(rng.next_below(8));
      ThreadPool::set_global_threads(threads);
      const std::string& clean = clean_bytes(delta);
      fs::remove(log_path);

      // Scenario slots: 0..3 always, 4 = fleet-kill (LDLB_CHAOS_KILL=1),
      // 5 = certlog-kill (LDLB_CHAOS_CERTLOG=1). The remap keeps each
      // slot's meaning stable regardless of which flags are set, so a seed
      // replays the same scenario sequence under the same flags.
      const std::uint64_t scenario_count =
          4 + (fleet_kill ? 1 : 0) + (certlog_chaos ? 1 : 0);
      std::uint64_t pick = rng.next_below(scenario_count);
      if (pick >= 4) {
        std::vector<std::uint64_t> enabled;
        if (fleet_kill) enabled.push_back(4);
        if (certlog_chaos) enabled.push_back(5);
        pick = enabled[pick - 4];
      }
      switch (pick) {
        case 0: {  // cooperative cancel at a random checkpoint, then resume
          g_scenario = "cancel";
          const int cancel_level =
              static_cast<int>(rng.next_below(delta - 1));
          {
            SeqColorPacking alg{delta};
            CertificateLog log(log_path);
            CancellationToken token;
            ResumeOptions options;
            options.adversary.cancel = &token;
            options.on_checkpoint = [&](const CertificateLevel& lv) {
              if (lv.level == cancel_level) {
                token.request_cancel("chaos cancel");
              }
            };
            try {
              run_adversary_resumable(alg, delta, log, options);
              // A cancel at the final checkpoint lands after the chain is
              // already complete; nothing was interrupted.
            } catch (const Cancelled&) {
            }
          }
          resume_and_compare(delta);
          break;
        }
        case 1: {  // fs fault on a random save, then resume
          g_scenario = "env-fault";
          const auto op = static_cast<FsOp>(rng.next_below(4));
          auto mode = static_cast<EnvFaultMode>(rng.next_below(3));
          if (op != FsOp::kWrite && mode == EnvFaultMode::kShortWrite) {
            mode = EnvFaultMode::kEio;  // short writes only exist for write()
          }
          const int nth = 1 + static_cast<int>(rng.next_below(delta - 1));
          {
            EnvFaultPlan plan;
            ScopedFsFaultInjection install(&plan);
            plan.arm(op, mode, nth);
            SeqColorPacking alg{delta};
            CertificateLog log(log_path);
            try {
              run_adversary_resumable(alg, delta, log, {});
              // nth beyond the number of saves: the plan never fired.
            } catch (const IoError&) {
            }
          }
          resume_and_compare(delta);
          break;
        }
        case 2: {  // tear the tail off a finished log, then resume
          g_scenario = "torn-tail";
          {
            SeqColorPacking alg{delta};
            CertificateLog log(log_path);
            run_adversary_resumable(alg, delta, log, {});
          }
          const std::string full = read_file(log_path);
          write_file_atomic(log_path,
                            full.substr(0, rng.next_below(full.size())));
          resume_and_compare(delta);
          break;
        }
        case 3: {  // guarded interruption classifies, then a clean run
          g_scenario = "guarded";
          SeqColorPacking alg{delta};
          GuardedOutcome outcome;
          RunStatus expected = RunStatus::kOk;
          switch (rng.next_below(3)) {
            case 0: {  // already-expired global deadline
              expected = RunStatus::kCancelled;
              CancellationToken token{Deadline::in(0.0)};
              AdversaryOptions opts;
              opts.cancel = &token;
              outcome = guarded_run_adversary(alg, delta, opts);
              break;
            }
            case 1: {  // cumulative message cap of 1
              expected = RunStatus::kBudgetExceeded;
              BudgetHooks::Limits limits;
              limits.max_total_messages = 1;
              BudgetHooks hooks{limits};
              AdversaryOptions opts;
              opts.hooks = &hooks;
              outcome = guarded_run_adversary(alg, delta, opts);
              break;
            }
            default: {  // starved allocation budget
              expected = RunStatus::kEnvFault;
              // A zero budget makes the first charge throw. Every
              // level's (P1) walk charges its scratch, so the run cannot
              // finish, whatever size that scratch has.
              ScopedAllocBudget budget(0);
              outcome = guarded_run_adversary(alg, delta);
              break;
            }
          }
          check(outcome.status == expected,
                std::string("guarded run classified as ") +
                    outcome.classification() + ", expected " +
                    to_string(expected));
          check(!outcome.certificate.has_value(),
                "interrupted guarded run still produced a certificate");
          resume_and_compare(delta);
          break;
        }
        case 4: {  // fleet run with workers SIGKILLed at random levels
          g_scenario = "fleet-kill";
          const int workers = 1 + static_cast<int>(rng.next_below(3));
          FleetOptions options;
          options.workers = workers;
          options.backoff_base_seconds = 0.001;  // soak fast, still backing off
          options.on_level = [&](int, const std::vector<pid_t>& pids) {
            if (pids.empty() || rng.next_below(2) != 0) return;
            const auto victim = static_cast<std::size_t>(
                rng.next_u64() % static_cast<std::uint64_t>(pids.size()));
            ipc::kill_process(pids[victim]);
          };
          const AlgorithmFactory factory = [delta]() {
            return std::make_unique<SeqColorPacking>(delta);
          };
          CertificateLog log(log_path);
          FleetReport report;
          const std::string bytes = certificate_to_string(
              run_adversary_fleet(factory, delta, log, options, &report));
          check(report.status == RunStatus::kOk,
                "fleet run did not survive the kills: " + report.to_string());
          check(bytes == clean,
                "fleet certificate differs from the clean run after " +
                    std::to_string(report.respawns) + " respawns");
          break;
        }
        default: {  // SIGKILL a log-writing child, tear the tail, resume
          g_scenario = "certlog-kill";
          const int kill_level = static_cast<int>(rng.next_below(delta - 1));
          ipc::WorkerProcess writer = ipc::spawn_worker([&](int, int) {
            SeqColorPacking alg{delta};
            CertificateLog store(log_path);
            ResumeOptions options;
            options.on_checkpoint = [&](const CertificateLevel& lv) {
              // A real SIGKILL, not an exception: the child dies with the
              // append for this level already durable, nothing cleaned up.
              if (lv.level == kill_level) ipc::kill_process(::getpid());
            };
            run_adversary_resumable(alg, delta, store, options);
            return 0;
          });
          (void)ipc::wait_exit(writer.pid, Deadline::in(60.0));
          ipc::close_worker_fds(writer);

          // The kill landed between appends; additionally tear the tail
          // the way a kill *during* the append would have.
          const std::string bytes = read_file(log_path);
          check(!bytes.empty(), "killed writer left no certificate log");
          const std::size_t tear = rng.next_below(
              std::min<std::size_t>(bytes.size(), 200));
          write_file_atomic(log_path, bytes.substr(0, bytes.size() - tear));

          CertificateLog store(log_path);
          const CertLogReport report = store.scan();
          check(report.recoverable(),
                "torn certificate log classified unrecoverable: " +
                    report.to_string());
          SeqColorPacking alg{delta};
          LowerBoundCertificate chain =
              run_adversary_resumable(alg, delta, store, {});
          check(certificate_to_string(chain) == clean,
                "certificate resumed over the torn log differs from the "
                "clean run");
          check(read_file(log_path) == CertificateLog::serialize(chain),
                "repaired certificate log differs from a clean "
                "serialization");
          break;
        }
      }
      std::printf("chaos_soak: cycle %d ok (delta=%d threads=%d %s)\n",
                  g_cycle, delta, threads, g_scenario);
      check(clean == clean_bytes(delta), "clean reference mutated");
    }
  } catch (const std::exception& e) {
    fail(std::string("unexpected exception: ") + e.what());
  }

  fs::remove(log_path);
  ThreadPool::set_global_threads(0);
  std::printf("chaos_soak: all %d cycles ok (seed=%llu)\n", cycles, g_seed);
  return 0;
}
