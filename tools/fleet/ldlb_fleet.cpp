// Command-line front end of the crash-tolerant adversary fleet
// (fault/fleet.hpp): a coordinator forking pipe workers, checkpointing into
// the append-only certificate log. See --help for the flags and the
// exit-code contract; the CI fleet-determinism stage byte-compares --print
// output across worker counts and kill histories.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "ldlb/core/certificate_io.hpp"
#include "ldlb/fault/fleet.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/recover/cert_log.hpp"
#include "ldlb/util/ipc.hpp"
#include "ldlb/util/rng.hpp"

namespace {

void help(std::ostream& os, const char* argv0) {
  os << "usage: " << argv0 << " --delta <d> --log <path> [options]\n"
     << "\n"
     << "  --log <path>             checkpoint into (and resume from) this\n"
     << "                           append-only certificate log (required)\n"
     << "  --workers <n>            worker processes (0 = in-process engine;\n"
     << "                           default 2)\n"
     << "  --print                  write the final certificate text to stdout\n"
     << "  --report                 write the FleetReport to stderr\n"
     << "  --resume                 keep an existing log (default: start fresh)\n"
     << "  --kill-every-level <s>   chaos: SIGKILL one seed-chosen worker as\n"
     << "                           each level's requests go out\n"
     << "  --abort-after-level <L>  crash-stop right after level L is checkpointed\n"
     << "                           (exit 3; re-run with --resume to finish)\n"
     << "  --max-respawns <n>       respawn budget per level (default 3)\n"
     << "  --no-degrade             fail fast when fork(2) refuses instead of\n"
     << "                           degrading to the in-process engine\n"
     << "\n"
     << "exit codes:\n"
     << "  0  certificate produced\n"
     << "  1  real failure (classified in the --report output)\n"
     << "  2  usage error\n"
     << "  3  injected crash-stop fired; the log is resumable (--resume)\n";
}

int usage(const char* argv0) {
  help(std::cerr, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ldlb;

  int delta = 0;
  int workers = 2;
  std::string log_path;
  bool print = false;
  bool report_wanted = false;
  bool resume = false;
  bool chaos = false;
  bool degrade = true;
  std::uint64_t chaos_seed = 0;
  int abort_after_level = -1;
  int max_respawns = 3;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      help(std::cout, argv[0]);
      return 0;
    } else if (arg == "--delta") {
      delta = std::atoi(value());
    } else if (arg == "--workers") {
      workers = std::atoi(value());
    } else if (arg == "--log") {
      log_path = value();
    } else if (arg == "--print") {
      print = true;
    } else if (arg == "--report") {
      report_wanted = true;
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--no-degrade") {
      degrade = false;
    } else if (arg == "--kill-every-level") {
      chaos = true;
      chaos_seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--abort-after-level") {
      abort_after_level = std::atoi(value());
    } else if (arg == "--max-respawns") {
      max_respawns = std::atoi(value());
    } else {
      std::cerr << "unknown option " << arg << "\n";
      return usage(argv[0]);
    }
  }
  if (delta < 2 || workers < 0 || log_path.empty()) return usage(argv[0]);

  const AlgorithmFactory factory = [delta]() {
    return std::make_unique<SeqColorPacking>(delta);
  };

  FleetOptions options;
  options.workers = workers;
  options.max_respawns_per_level = max_respawns;
  options.degrade = degrade;

  CertificateLog log{log_path};
  if (!resume) log.remove();

  Rng rng{chaos_seed};
  if (chaos) {
    std::cerr << "chaos: SIGKILL one worker per level, seed " << chaos_seed
              << "\n";
    options.on_level = [&rng](int level, const std::vector<pid_t>& pids) {
      if (pids.empty()) return;
      const std::size_t victim = static_cast<std::size_t>(
          rng.next_u64() % static_cast<std::uint64_t>(pids.size()));
      std::cerr << "chaos: level " << level << ": killing worker slot "
                << victim << "\n";
      ipc::kill_process(pids[victim]);
    };
  }
  if (abort_after_level >= 0) {
    options.on_checkpoint = crash_at_level(abort_after_level);
  }

  FleetReport report;
  try {
    const LowerBoundCertificate cert =
        run_adversary_fleet(factory, delta, log, options, &report);
    if (report_wanted) std::cerr << report.to_string() << "\n";
    if (print) {
      std::cout << certificate_to_string(cert);
    } else {
      std::cout << "certified levels 0.." << cert.certified_radius()
                << " for delta " << delta << " with " << workers
                << " workers over " << report.transport << " ("
                << report.respawns << " respawns)\n";
    }
    return 0;
  } catch (const FaultInjected& e) {
    if (report_wanted) std::cerr << report.to_string() << "\n";
    std::cerr << "crash-stop: " << e.what() << "\n";
    return 3;
  } catch (const Error& e) {
    if (report_wanted) std::cerr << report.to_string() << "\n";
    std::cerr << "fleet run failed (" << to_string(report.status)
              << "): " << e.what() << "\n";
    return 1;
  }
}
