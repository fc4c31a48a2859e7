// Driver for the crash-tolerant adversary fleet (fault/fleet.hpp): the
// pipe coordinator from PR 6, plus the two halves of the socket fleet
// (worker daemon / connecting coordinator). See --help for the flags and
// the exit-code contract; the CI fleet-determinism stages byte-compare
// --print output across worker counts, transports and kill histories.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "ldlb/core/certificate_io.hpp"
#include "ldlb/fault/fleet.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/recover/cert_log.hpp"
#include "ldlb/recover/snapshot_store.hpp"
#include "ldlb/util/ipc.hpp"
#include "ldlb/util/net.hpp"
#include "ldlb/util/rng.hpp"

namespace {

void help(std::ostream& os, const char* argv0) {
  os << "usage: " << argv0
     << " --delta <d> --snapshot <path> [options]   coordinator (pipe fleet)\n"
     << "       " << argv0
     << " --delta <d> --log <path> [options]        coordinator (streaming\n"
     << "                                  certificate log instead of snapshot)\n"
     << "       " << argv0
     << " --delta <d> --snapshot <path> --connect <host:port[,host:port...]>\n"
     << "                                  [options]   coordinator (socket fleet)\n"
     << "       " << argv0
     << " --delta <d> --listen <port> [options]       worker daemon\n"
     << "\n"
     << "coordinator options:\n"
     << "  --workers <n>            worker slots (0 = in-process engine; default 2)\n"
     << "  --print                  write the final certificate text to stdout\n"
     << "  --report                 write the FleetReport to stderr\n"
     << "  --log <path>             checkpoint into an append-only streaming\n"
     << "                           certificate log (recover/cert_log) instead of\n"
     << "                           the rewrite-whole-file snapshot store\n"
     << "  --resume                 keep an existing store (default: start fresh)\n"
     << "  --kill-every-level <s>   chaos: violently sever one seed-chosen worker\n"
     << "                           link as each level's requests go out (SIGKILL\n"
     << "                           for pipe workers, abortive RST for sockets)\n"
     << "  --abort-after-level <L>  crash-stop right after level L is checkpointed\n"
     << "                           (exit 3; re-run with --resume to finish)\n"
     << "  --max-respawns <n>       respawn budget per level (default 3)\n"
     << "  --no-degrade             fail fast instead of walking the degradation\n"
     << "                           ladder (socket -> pipe -> in-process)\n"
     << "  --connect-timeout <s>    socket: seconds per connect+handshake (default 5)\n"
     << "  --stale-after <s>        socket: reply wait without even a heartbeat\n"
     << "                           before the worker counts as stale (default 30)\n"
     << "\n"
     << "daemon options:\n"
     << "  --listen <port>          serve fleet workers on this TCP port (0 picks\n"
     << "                           an ephemeral port; the bound port is printed as\n"
     << "                           'ldlb_fleet: listening on port N' and flushed)\n"
     << "  --heartbeat <s>          idle heartbeat interval (default 0.25)\n"
     << "  --max-connections <n>    exit 0 after serving n connections (default:\n"
     << "                           serve until killed)\n"
     << "\n"
     << "exit codes:\n"
     << "  0  certificate produced (or daemon finished cleanly)\n"
     << "  1  real failure (classified in the --report output)\n"
     << "  2  usage error\n"
     << "  3  injected crash-stop fired; the store is resumable (--resume)\n"
     << "  4  remote transport exhausted under --no-degrade: every socket\n"
     << "     worker's respawn budget was spent and degradation was refused\n";
}

int usage(const char* argv0) {
  help(std::cerr, argv0);
  return 2;
}

// "host:port,host:port" -> endpoints; empty on malformed input.
std::vector<ldlb::RemoteEndpoint> parse_remotes(const std::string& spec) {
  std::vector<ldlb::RemoteEndpoint> remotes;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string one = spec.substr(begin, end - begin);
    const std::size_t colon = one.rfind(':');
    if (one.empty() || colon == std::string::npos || colon == 0 ||
        colon + 1 >= one.size()) {
      return {};
    }
    char* stop = nullptr;
    const long port = std::strtol(one.c_str() + colon + 1, &stop, 10);
    if (stop == nullptr || *stop != '\0' || port < 1 || port > 65535) {
      return {};
    }
    remotes.push_back(
        {one.substr(0, colon), static_cast<int>(port)});
    begin = end + 1;
  }
  return remotes;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ldlb;

  int delta = 0;
  int workers = 2;
  std::string snapshot;
  std::string log_path;
  std::string connect_spec;
  bool print = false;
  bool report_wanted = false;
  bool resume = false;
  bool chaos = false;
  bool degrade = true;
  std::uint64_t chaos_seed = 0;
  int abort_after_level = -1;
  int max_respawns = 3;
  double connect_timeout = 5.0;
  double stale_after = 30.0;
  int listen_port = -1;
  double heartbeat = 0.25;
  long long max_connections = 0;

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
    } else if (arg == "--snapshot") {
      snapshot = value();
    } else if (arg == "--log") {
      log_path = value();
    } else if (arg == "--connect") {
      connect_spec = value();
    } else if (arg == "--listen") {
      listen_port = std::atoi(value());
    } else if (arg == "--heartbeat") {
      heartbeat = std::atof(value());
    } else if (arg == "--max-connections") {
      max_connections = std::atoll(value());
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
    } else if (arg == "--connect-timeout") {
      connect_timeout = std::atof(value());
    } else if (arg == "--stale-after") {
      stale_after = std::atof(value());
    } else {
      std::cerr << "unknown option " << arg << "\n";
      return usage(argv[0]);
    }
  }
  if (delta < 2) return usage(argv[0]);

  const AlgorithmFactory factory = [delta]() {
    return std::make_unique<SeqColorPacking>(delta);
  };

  // Worker daemon mode: serve until killed (or --max-connections reached).
  if (listen_port >= 0) {
    try {
      net::Listener listener = net::Listener::on("127.0.0.1", listen_port);
      std::cout << "ldlb_fleet: listening on port " << listener.port()
                << std::endl;
      FleetDaemonOptions daemon_options;
      daemon_options.heartbeat_interval_seconds = heartbeat;
      daemon_options.max_connections = max_connections;
      return run_fleet_daemon(factory, delta, listener, daemon_options);
    } catch (const Error& e) {
      std::cerr << "daemon failed: " << e.what() << "\n";
      return 1;
    }
  }

  if (workers < 0 || (snapshot.empty() == log_path.empty())) {
    // Exactly one of --snapshot / --log picks the checkpoint store.
    return usage(argv[0]);
  }

  FleetOptions options;
  options.workers = workers;
  options.max_respawns_per_level = max_respawns;
  options.degrade = degrade;
  options.connect_timeout_seconds = connect_timeout;
  options.stale_after_seconds = stale_after;
  if (!connect_spec.empty()) {
    options.remotes = parse_remotes(connect_spec);
    if (options.remotes.empty()) {
      std::cerr << "malformed --connect '" << connect_spec << "'\n";
      return usage(argv[0]);
    }
  }

  std::unique_ptr<CheckpointStore> store_owner;
  if (!log_path.empty()) {
    store_owner = std::make_unique<CertificateLog>(log_path);
  } else {
    store_owner = std::make_unique<SnapshotStore>(snapshot);
  }
  CheckpointStore& store = *store_owner;
  if (!resume) store.remove();

  Rng rng{chaos_seed};
  if (chaos) {
    std::cerr << "chaos: sever one worker link per level, seed " << chaos_seed
              << "\n";
    options.on_level_drop = [&rng](int level, int slots,
                                   const std::function<void(int)>& drop) {
      if (slots <= 0) return;
      const int victim = static_cast<int>(
          rng.next_u64() % static_cast<std::uint64_t>(slots));
      std::cerr << "chaos: level " << level << ": dropping worker slot "
                << victim << "\n";
      drop(victim);
    };
  }
  if (abort_after_level >= 0) {
    options.on_checkpoint = crash_at_level(abort_after_level);
  }

  FleetReport report;
  try {
    const LowerBoundCertificate cert =
        run_adversary_fleet(factory, delta, store, options, &report);
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
  } catch (const WorkerLost& e) {
    if (report_wanted) std::cerr << report.to_string() << "\n";
    std::cerr << "fleet run failed (" << to_string(report.status)
              << "): " << e.what() << "\n";
    // The remote fleet running dry under --no-degrade is its own exit code
    // so CI can pin the refusal without parsing stderr.
    return report.transport == "socket" ? 4 : 1;
  } catch (const Error& e) {
    if (report_wanted) std::cerr << report.to_string() << "\n";
    std::cerr << "fleet run failed (" << to_string(report.status)
              << "): " << e.what() << "\n";
    return 1;
  }
}
