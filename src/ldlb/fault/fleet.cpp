#include "ldlb/fault/fleet.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <deque>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "ldlb/core/certificate_io.hpp"
#include "ldlb/graph/graph_io.hpp"
#include "ldlb/local/simulator.hpp"
#include "ldlb/util/ipc.hpp"
#include "ldlb/util/line_reader.hpp"

namespace ldlb {

namespace {

// ---------------------------------------------------------------------------
// Wire protocol, version 2. Every frame payload is "<header line>\n<body>";
// the header is whitespace-separated tokens, the body is one of the repo's
// line formats. Requests:
//
//   run <id> <max_rounds>               body: multigraph (graph_io)
//   validate <id> <delta> <loopiness>   body: one level (certificate_io);
//                                       the coordinator always sends 1
//   shutdown                            body: empty
//
// Replies:
//
//   ok <id> <edge_count>                body: one weight token per edge
//   valid <id> <0|1>                    body: empty
//   error <id> <status-token> <errno>   body: the error message
//
// Weights are exact rationals ("num/den"), so a matching round-trips
// byte-exactly and the certificate the coordinator assembles is identical
// to an in-process run's. A worker keeps no state between requests: it
// answers "validate" from the level in the request alone.
// ---------------------------------------------------------------------------

std::string run_request(int id, int rounds, const Multigraph& g) {
  std::string out = "run ";
  append_int(out, id);
  out += ' ';
  append_int(out, rounds);
  out += '\n';
  append_graph(out, g);
  return out;
}

std::string validate_request(int id, int delta, const CertificateLevel& lv) {
  std::string out = "validate ";
  append_int(out, id);
  out += ' ';
  append_int(out, delta);
  out += " 1\n";
  append_certificate_level(out, lv);
  return out;
}

std::string error_reply(long long id, RunStatus status, int env_errno,
                        const std::string& message) {
  std::ostringstream os;
  os << "error " << id << " " << to_string(status) << " " << env_errno << "\n"
     << message;
  return os.str();
}

// One parsed reply; `ok` covers the run ("ok") and validate ("valid")
// success shapes, `status`/`env_errno`/`error` carry an "error" reply.
struct Reply {
  bool ok = false;
  FractionalMatching matching;
  bool valid = false;  ///< "valid": level verdict
  RunStatus status = RunStatus::kOk;
  int env_errno = 0;
  std::string error;
};

// Parses a reply payload; nullopt (→ corrupt-frame incident) on anything
// malformed, including an id that does not match the request being waited
// on — replies must come back in request order per worker.
std::optional<Reply> parse_reply(const std::string& payload,
                                 int expected_id) {
  const auto nl = payload.find('\n');
  const std::string header =
      payload.substr(0, nl == std::string::npos ? payload.size() : nl);
  const std::string_view body =
      nl == std::string::npos ? std::string_view()
                              : std::string_view(payload).substr(nl + 1);

  std::istringstream hs(header);
  std::string verb;
  long long id = -1;
  if (!(hs >> verb >> id) || id != expected_id) return std::nullopt;

  Reply reply;
  if (verb == "ok") {
    long long edges = -1;
    if (!(hs >> edges)) return std::nullopt;
    std::optional<std::vector<Rational>> weights =
        detail::read_weight_list(body, edges);
    if (!weights) return std::nullopt;
    reply.ok = true;
    reply.matching = FractionalMatching(std::move(*weights));
    return reply;
  }
  if (verb == "valid") {
    long long flag = -1;
    if (!(hs >> flag) || (flag != 0 && flag != 1)) return std::nullopt;
    reply.ok = true;
    reply.valid = flag == 1;
    return reply;
  }
  if (verb == "error") {
    std::string status_token;
    if (!(hs >> status_token >> reply.env_errno)) return std::nullopt;
    if (!run_status_from_string(status_token, reply.status)) {
      return std::nullopt;
    }
    reply.error = std::string(body);
    return reply;
  }
  return std::nullopt;
}

// Re-raises a worker-reported error in the coordinator as the typed
// exception the in-process engine would have thrown, so the supervision
// layer above classifies fleet and in-process failures identically.
[[noreturn]] void rethrow_reply(const Reply& reply, int rounds) {
  switch (reply.status) {
    case RunStatus::kBudgetExceeded:
      throw BudgetExceeded(reply.error, BudgetExceeded::Kind::kRounds, rounds,
                           rounds);
    case RunStatus::kModelViolation:
      throw ModelViolation(reply.error);
    case RunStatus::kFaultInjected:
      throw FaultInjected(reply.error, "worker-reported");
    case RunStatus::kCancelled:
      throw Cancelled(reply.error);
    case RunStatus::kEnvFault:
      throw IoError(reply.error, "<worker>", reply.env_errno);
    case RunStatus::kWorkerLost:
      // Workers never report this about themselves; a frame claiming it is
      // as good as corrupt.
      throw WorkerLost(reply.error, "corrupt-frame");
    case RunStatus::kOk:
    case RunStatus::kContractViolation:
      throw ContractViolation(reply.error);
  }
  throw ContractViolation(reply.error);
}

// ---------------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------------

// Serves one request; never throws — every failure becomes an "error"
// reply carrying the classified RunStatus, so the coordinator's retry
// policy sees worker-side failures exactly as it would in-process ones.
std::string handle_request(EcAlgorithm& algorithm, const std::string& payload,
                           bool& shutdown) {
  const auto nl = payload.find('\n');
  const std::string header =
      payload.substr(0, nl == std::string::npos ? payload.size() : nl);
  const std::string_view body =
      nl == std::string::npos ? std::string_view()
                              : std::string_view(payload).substr(nl + 1);

  std::istringstream hs(header);
  std::string verb;
  hs >> verb;
  if (verb == "shutdown") {
    shutdown = true;
    return "";
  }
  long long id = -1;
  hs >> id;
  try {
    if (verb == "run") {
      long long rounds = 0;
      if (!(hs >> rounds) || rounds <= 0) {
        throw ContractViolation("malformed run request header: " + header);
      }
      // Unobserved, so run_ec takes the algorithm's closed form where it
      // has one, as the in-process adversary does; failures reach the
      // catch ladder below.
      const Multigraph g = multigraph_from_string(body);
      return detail::run_reply(
          id, run_ec(g, algorithm, static_cast<int>(rounds)).matching);
    }
    if (verb == "validate") {
      long long delta = 0, loopiness_flag = 0;
      if (!(hs >> delta >> loopiness_flag)) {
        throw ContractViolation("malformed validate request header: " +
                                header);
      }
      LineReader reader{body};
      LowerBoundCertificate one;
      one.delta = static_cast<int>(delta);
      one.algorithm_name = algorithm.name();
      one.levels.push_back(read_certificate_level(reader));
      const auto validations =
          validate_certificate(one, algorithm, loopiness_flag != 0);
      const bool valid = validations.size() == 1 && validations[0].ok();
      std::ostringstream os;
      os << "valid " << id << " " << (valid ? 1 : 0);
      return os.str();
    }
    throw ContractViolation("unknown fleet request verb '" + verb + "'");
  } catch (const BudgetExceeded& e) {
    return error_reply(id, RunStatus::kBudgetExceeded, 0, e.what());
  } catch (const ModelViolation& e) {
    return error_reply(id, RunStatus::kModelViolation, 0, e.what());
  } catch (const FaultInjected& e) {
    return error_reply(id, RunStatus::kFaultInjected, 0, e.what());
  } catch (const Cancelled& e) {
    return error_reply(id, RunStatus::kCancelled, 0, e.what());
  } catch (const IoError& e) {
    return error_reply(id, RunStatus::kEnvFault, e.error_code(), e.what());
  } catch (const Error& e) {
    return error_reply(id, RunStatus::kContractViolation, 0, e.what());
  } catch (const std::bad_alloc& e) {
    return error_reply(id, RunStatus::kEnvFault, 0, e.what());
  }
}

}  // namespace

namespace detail {

std::string run_reply(long long id, const FractionalMatching& y) {
  std::string out = "ok ";
  append_int(out, id);
  out += ' ';
  append_int(out, y.edge_count());
  out += '\n';
  for (const Rational& w : y.weights()) {
    w.append_to(out);
    out += '\n';
  }
  return out;
}

std::optional<std::vector<Rational>> read_weight_list(std::string_view body,
                                                      long long count) {
  if (count < 0) return std::nullopt;
  // n weights take at least 2n - 1 bytes (a digit each, separated), so a
  // count the body cannot hold fails below without reserving for it.
  std::vector<Rational> weights;
  weights.reserve(static_cast<std::size_t>(
      std::min<long long>(count, static_cast<long long>(body.size() / 2) + 1)));
  LineReader reader{body};
  try {
    for (long long e = 0; e < count; ++e) {
      weights.push_back(Rational::from_string(reader.token("weight")));
    }
  } catch (const Error&) {
    return std::nullopt;
  }
  return weights;
}

}  // namespace detail

int fleet_worker_main(const AlgorithmFactory& factory, int in_fd, int out_fd) {
  LDLB_REQUIRE_MSG(factory != nullptr, "fleet worker needs a factory");
  const std::unique_ptr<EcAlgorithm> algorithm = factory();
  LDLB_REQUIRE_MSG(algorithm != nullptr, "algorithm factory returned null");
  for (;;) {
    const ipc::FrameResult request = ipc::read_frame(in_fd);
    if (request.status == ipc::FrameStatus::kEof) return 0;  // coordinator
                                                             // hung up
    if (request.status != ipc::FrameStatus::kOk) return 3;   // torn stream
    bool shutdown = false;
    const std::string reply =
        handle_request(*algorithm, request.payload, shutdown);
    if (shutdown) return 0;
    try {
      ipc::write_frame(out_fd, reply);
    } catch (const IoError&) {
      return 2;  // coordinator died mid-conversation
    }
  }
}

// ---------------------------------------------------------------------------
// Coordinator side.
// ---------------------------------------------------------------------------

namespace {

// How long a teardown waits for a worker to take its shutdown frame, and
// then to exit, before killing it.
constexpr double kGraceSeconds = 5.0;

// The coordinator's view of the worker pool: fixed slots, each holding a
// forked worker and the requests it has not answered yet. All chain state
// lives in the coordinator, so a slot can be killed, respawned and replayed
// at any moment without touching the chain.
class Fleet {
 public:
  Fleet(ipc::WorkerMain body, const FleetOptions& options,
        FleetReport& report)
      : body_(std::move(body)), options_(options), report_(report) {}

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  ~Fleet() { terminate_all(); }

  /// Forks the initial pool. An IoError (fork refused) propagates after
  /// the workers already forked are reaped, so the in-process engine the
  /// caller degrades to runs without them; anything else reaps them in the
  /// destructor.
  void spawn_all() {
    slots_ = std::vector<Slot>(static_cast<std::size_t>(options_.workers));
    try {
      for (Slot& slot : slots_) {
        slot.proc = ipc::spawn_worker(body_);
        ++report_.workers_spawned;
      }
    } catch (const IoError&) {
      terminate_all();
      throw;
    }
  }

  /// One fleet-executed adversary step, as lazy as the in-process one:
  /// plan in-process, ship GH alone, and ship the unfolding its mix weight
  /// selects only when combine_adversary_step fetches it. Two requests a
  /// level, one in flight at a time, on consecutive slots.
  CertificateLevel step(int delta, const CertificateLevel& prev, int rounds,
                        const std::string& algorithm_name) {
    AdversaryStepPlan plan = plan_adversary_step(prev);
    const int level = prev.level + 1;
    if (options_.on_level) options_.on_level(level, pids());

    FractionalMatching y_gh = run_remote(level, 0, rounds, plan.gh);
    // `plan` outlives the combine call, so the reference capture is sound.
    BranchFetch fetch = [&](bool want_gg) {
      return want_gg ? run_remote(level, 1, rounds, plan.gg.graph)
                     : run_remote(level, 2, rounds, plan.hh.graph);
    };
    return combine_adversary_step(delta, prev, std::move(plan),
                                  std::move(y_gh), fetch, algorithm_name,
                                  options_.adversary);
  }

  /// Sharded re-validation of a loaded prefix: returns the number of
  /// leading levels that validated. A level whose validation errs on the
  /// worker side counts as untrusted — recomputing it is always safe.
  std::size_t revalidate(const LowerBoundCertificate& chain) {
    std::vector<std::pair<int, std::string>> requests;
    requests.reserve(chain.levels.size());
    for (std::size_t i = 0; i < chain.levels.size(); ++i) {
      requests.emplace_back(
          static_cast<int>(i),
          validate_request(static_cast<int>(i), chain.delta, chain.levels[i]));
    }
    std::map<int, Reply> replies =
        exchange(kRevalidationLevel, std::move(requests));
    std::size_t keep = 0;
    // ldlb-analyze: allow(cancellation): bounded — scans at most
    // chain.levels.size() replies and stops at the first failure.
    while (keep < chain.levels.size()) {
      const auto it = replies.find(static_cast<int>(keep));
      if (it == replies.end() || !it->second.ok || !it->second.valid) break;
      ++keep;
    }
    return keep;
  }

  /// Graceful teardown: every slot's shutdown frame goes out before any
  /// worker is reaped (stragglers are killed), so the exits overlap.
  void shutdown() {
    for (Slot& slot : slots_) request_shutdown(slot.proc);
    for (Slot& slot : slots_) {
      if (!slot.proc.valid()) continue;
      const ipc::ExitStatus status =
          ipc::wait_exit(slot.proc.pid, Deadline::in(kGraceSeconds));
      if (status.kind == ipc::ExitKind::kRunning) {
        ipc::kill_process(slot.proc.pid);
        (void)ipc::wait_exit(slot.proc.pid, Deadline::in(kGraceSeconds));
      }
      slot.proc = {};
    }
  }

  /// The incident-accounting bucket for revalidation exchanges.
  static constexpr int kRevalidationLevel = -1;

 private:
  struct Slot {
    ipc::WorkerProcess proc;
    std::deque<std::pair<int, std::string>> outstanding;  // id, payload
  };

  [[nodiscard]] std::vector<pid_t> pids() const {
    std::vector<pid_t> out;
    out.reserve(slots_.size());
    for (const Slot& slot : slots_) out.push_back(slot.proc.pid);
    return out;
  }

  // Best-effort shutdown frame, then close the coordinator's ends without
  // waiting for the worker.
  static void request_shutdown(ipc::WorkerProcess& proc) {
    if (proc.to_fd < 0) return;
    try {
      ipc::write_frame(proc.to_fd, "shutdown", Deadline::in(kGraceSeconds));
    } catch (const IoError&) {
      // Already gone (or not reading); the reap in shutdown() cleans up.
    }
    ipc::close_worker_fds(proc);
  }

  // Unconditional teardown for destruction and failed spawn_all: close,
  // kill, reap, never throw.
  void terminate_all() noexcept {
    for (Slot& slot : slots_) {
      if (!slot.proc.valid()) continue;
      try {
        ipc::close_worker_fds(slot.proc);
        ipc::kill_process(slot.proc.pid);
        (void)ipc::wait_exit(slot.proc.pid, Deadline::in(kGraceSeconds));
        // ldlb-lint: allow(catch-all): teardown must not throw out of a
        // destructor; a worker we cannot reap is abandoned to init.
      } catch (...) {
      }
      slot.proc = {};
    }
  }

  // Survives the loss of slot `s`: kills and reaps the worker, records the
  // incident, enforces the per-level respawn budget (throwing WorkerLost
  // once it is spent), waits out the geometric backoff and respawns the
  // slot. A refused respawn is itself a "spawn" incident and consumes
  // budget like any other. An empty `hint_kind` classifies by how the
  // worker died ("exit" or "signal"); a hang or corrupt frame keeps its
  // frame-level kind (the kill here then shows as SIGKILL, which would
  // mislabel it "signal"). Does NOT replay the slot's outstanding
  // requests — callers rewrite them.
  void revive(int level, int s, const std::string& hint_kind,
              const std::string& detail) {
    Slot& slot = slots_[static_cast<std::size_t>(s)];
    if (incident_level_ != level) {
      incident_level_ = level;
      incidents_this_level_ = 0;
    }

    WorkerIncident incident;
    incident.level = level;
    incident.worker_slot = s;
    incident.kind = hint_kind;
    incident.detail = detail;
    if (slot.proc.valid()) {
      ipc::close_worker_fds(slot.proc);
      ipc::kill_process(slot.proc.pid);
      const ipc::ExitStatus status =
          ipc::wait_exit(slot.proc.pid, Deadline::in(10.0));
      if (incident.kind.empty()) {
        incident.kind =
            status.kind == ipc::ExitKind::kSignaled ? "signal" : "exit";
      }
      incident.detail = detail.empty() ? status.to_string()
                                       : detail + "; " + status.to_string();
      slot.proc = {};
    }

    ++incidents_this_level_;
    if (incidents_this_level_ > options_.max_respawns_per_level) {
      incident.respawned = false;
      report_.incidents.push_back(incident);
      std::ostringstream os;
      os << "fleet worker slot " << s << " lost (" << incident.kind << ": "
         << incident.detail << "); respawn budget of "
         << options_.max_respawns_per_level << " per level exhausted";
      throw WorkerLost(os.str(), incident.kind, s);
    }

    double delay = options_.backoff_base_seconds *
                   std::pow(options_.backoff_factor,
                            incidents_this_level_ - 1);
    if (delay > options_.backoff_max_seconds) {
      delay = options_.backoff_max_seconds;
    }
    // Cancellation-aware: a cancel landing mid-backoff throws Cancelled
    // here instead of sleeping the geometric wait out.
    ipc::sleep_seconds(delay, options_.adversary.cancel);

    try {
      slot.proc = ipc::spawn_worker(body_);
      ++report_.respawns;
      incident.respawned = true;
      report_.incidents.push_back(incident);
    } catch (const IoError& e) {
      incident.respawned = false;
      report_.incidents.push_back(incident);
      // Recursion is bounded by the respawn budget consumed above.
      revive(level, s, "spawn", e.what());
    }
  }

  // (Re)writes every outstanding request of slot `s`, reviving on write
  // failure until the slot holds a worker that accepted them all. Each
  // frame gets the reply deadline to be taken; a write that runs out of it
  // (ETIMEDOUT) is a "write-hang".
  void flush_slot(int level, int s, bool replay) {
    for (;;) {
      Slot& slot = slots_[static_cast<std::size_t>(s)];
      try {
        for (const auto& [id, payload] : slot.outstanding) {
          ipc::write_frame(slot.proc.to_fd, payload,
                           Deadline::in(options_.reply_deadline_seconds));
        }
        if (replay) {
          report_.requests_replayed +=
              static_cast<int>(slot.outstanding.size());
        }
        return;
      } catch (const IoError& e) {
        revive(level, s, e.error_code() == ETIMEDOUT ? "write-hang" : "",
               e.what());
        replay = true;
      }
    }
  }

  // Runs A on `g` in a worker, as request `id`, and returns its matching
  // (or re-raises the worker's classified error).
  FractionalMatching run_remote(int level, int id, int rounds,
                                const Multigraph& g) {
    std::vector<std::pair<int, std::string>> request;
    request.emplace_back(id, run_request(id, rounds, g));
    std::map<int, Reply> replies = exchange(level, std::move(request));
    return take_matching(replies.at(id), g.edge_count(), rounds);
  }

  // Dispatches `requests` round-robin across the slots, starting where the
  // previous exchange stopped, and collects every reply, riding out worker
  // losses by respawn-and-replay. Returns replies keyed by request id; an
  // entry exists for every request on return.
  std::map<int, Reply> exchange(
      int level, std::vector<std::pair<int, std::string>> requests) {
    if (options_.adversary.cancel) options_.adversary.cancel->check();
    const int width = static_cast<int>(slots_.size());
    LDLB_ENSURE_MSG(width > 0, "fleet exchange with no workers");
    for (std::size_t i = 0; i < requests.size(); ++i) {
      Slot& slot = slots_[static_cast<std::size_t>(next_slot_)];
      next_slot_ = (next_slot_ + 1) % width;
      LDLB_ENSURE_MSG(slot.outstanding.empty() || i >= slots_.size(),
                      "fleet exchange started with undrained slots");
      slot.outstanding.push_back(std::move(requests[i]));
    }
    report_.requests_sent += static_cast<int>(requests.size());

    for (int s = 0; s < width; ++s) {
      if (!slots_[static_cast<std::size_t>(s)].outstanding.empty()) {
        flush_slot(level, s, /*replay=*/false);
      }
    }

    std::map<int, Reply> replies;
    for (int s = 0; s < width; ++s) {
      Slot& slot = slots_[static_cast<std::size_t>(s)];
      while (!slot.outstanding.empty()) {
        const ipc::FrameResult frame = ipc::read_frame(
            slot.proc.from_fd, Deadline::in(options_.reply_deadline_seconds));
        if (frame.status != ipc::FrameStatus::kOk) {
          const char* hint =
              frame.status == ipc::FrameStatus::kTimeout   ? "hang"
              : frame.status == ipc::FrameStatus::kCorrupt ? "corrupt-frame"
                                                           : "";
          revive(level, s, hint, frame.detail);
          flush_slot(level, s, /*replay=*/true);
          continue;
        }
        std::optional<Reply> reply =
            parse_reply(frame.payload, slot.outstanding.front().first);
        if (!reply.has_value()) {
          revive(level, s, "corrupt-frame", "reply payload failed to parse");
          flush_slot(level, s, /*replay=*/true);
          continue;
        }
        replies[slot.outstanding.front().first] = std::move(*reply);
        slot.outstanding.pop_front();
      }
    }
    return replies;
  }

  // Unwraps a run reply into its matching (of the expected size), or
  // re-raises the worker's classified error.
  static FractionalMatching take_matching(Reply& reply, EdgeId expect,
                                          int rounds) {
    if (!reply.ok) rethrow_reply(reply, rounds);
    LDLB_ENSURE_MSG(reply.matching.edge_count() == expect,
                    "worker run reply carries "
                        << reply.matching.edge_count() << " weights, graph has "
                        << expect << " edges");
    return std::move(reply.matching);
  }

  ipc::WorkerMain body_;
  const FleetOptions& options_;
  FleetReport& report_;
  std::vector<Slot> slots_;
  int next_slot_ = 0;  ///< where the next exchange's first request goes
  int incident_level_ = INT_MIN;
  int incidents_this_level_ = 0;
};

// Catch ladder recording the terminating error's classification in the
// report before rethrowing — a fleet failure is observable even when the
// caller only catches Error.
template <typename Body>
LowerBoundCertificate classify_into_report(FleetReport& report, Body&& body) {
  const auto fail = [&report](RunStatus status, const char* what) {
    report.status = status;
    report.error = what;
  };
  try {
    return body();
  } catch (const BudgetExceeded& e) {
    fail(RunStatus::kBudgetExceeded, e.what());
    throw;
  } catch (const ModelViolation& e) {
    fail(RunStatus::kModelViolation, e.what());
    throw;
  } catch (const FaultInjected& e) {
    fail(RunStatus::kFaultInjected, e.what());
    throw;
  } catch (const Cancelled& e) {
    fail(RunStatus::kCancelled, e.what());
    throw;
  } catch (const IoError& e) {
    fail(RunStatus::kEnvFault, e.what());
    throw;
  } catch (const WorkerLost& e) {
    fail(RunStatus::kWorkerLost, e.what());
    throw;
  } catch (const Error& e) {
    fail(RunStatus::kContractViolation, e.what());
    throw;
  } catch (const std::bad_alloc& e) {
    fail(RunStatus::kEnvFault, e.what());
    throw;
  }
}

}  // namespace

std::string WorkerIncident::to_string() const {
  std::ostringstream os;
  if (level == Fleet::kRevalidationLevel) {
    os << "revalidation";
  } else {
    os << "level " << level;
  }
  os << " slot " << worker_slot << ": " << kind << " (" << detail << ") — "
     << (respawned ? "respawned" : "fatal");
  return os.str();
}

std::string FleetReport::to_string() const {
  std::ostringstream os;
  os << "fleet: " << workers_spawned << "/" << workers_requested
     << " workers, " << respawns << " respawns, " << requests_sent
     << " requests (" << requests_replayed << " replayed)";
  if (!transport.empty()) os << ", transport " << transport;
  if (degraded_in_process) {
    os << "\ndegraded in-process: " << degrade_reason;
  }
  for (const WorkerIncident& incident : incidents) {
    os << "\nincident: " << incident.to_string();
  }
  os << "\nstatus: " << ldlb::to_string(status);
  if (!error.empty()) os << " (" << error << ")";
  return os.str();
}

LowerBoundCertificate run_adversary_fleet(const AlgorithmFactory& factory,
                                          int delta, CertificateLog& log,
                                          const FleetOptions& options,
                                          FleetReport* report) {
  LDLB_REQUIRE(delta >= 2);
  LDLB_REQUIRE(options.workers >= 0);
  LDLB_REQUIRE_MSG(factory != nullptr, "fleet needs an algorithm factory");
  FleetReport local_report;
  FleetReport& rep = report != nullptr ? *report : local_report;
  rep = {};
  rep.workers_requested = options.workers;

  // The coordinator's own instance: names the job, builds the base case,
  // and runs the whole chain in-process when the fleet cannot form.
  const std::unique_ptr<EcAlgorithm> algorithm = factory();
  LDLB_REQUIRE_MSG(algorithm != nullptr, "algorithm factory returned null");

  ResumeOptions resume_options;
  resume_options.adversary = options.adversary;
  resume_options.retry = options.retry;
  resume_options.revalidate = options.revalidate;
  resume_options.on_checkpoint = options.on_checkpoint;

  const auto run_in_process =
      [&](const std::string& degrade_reason) -> LowerBoundCertificate {
    rep.transport = "in-process";
    rep.degraded_in_process = !degrade_reason.empty();
    rep.degrade_reason = degrade_reason;
    return run_adversary_resumable(*algorithm, delta, log, resume_options,
                                   &rep.resume);
  };

  return classify_into_report(rep, [&]() -> LowerBoundCertificate {
    if (options.workers == 0) return run_in_process("");

    rep.transport = "pipe";
    Fleet fleet(
        [factory](int in_fd, int out_fd) {
          return fleet_worker_main(factory, in_fd, out_fd);
        },
        options, rep);
    try {
      fleet.spawn_all();
    } catch (const IoError& e) {
      // Mirrors ThreadPool::construction_error(): an environment that
      // cannot fork still certifies, just without isolation.
      if (!options.degrade) throw;
      return run_in_process(e.what());
    }

    // The resumable engine's loop, with simulations and re-validation
    // shipped to the workers.
    ChainExecutor workers;
    workers.revalidate = [&fleet](const LowerBoundCertificate& chain) {
      return fleet.revalidate(chain);
    };
    workers.step = [&](const CertificateLevel& prev, int rounds) {
      return fleet.step(delta, prev, rounds, algorithm->name());
    };
    LowerBoundCertificate chain = resume_chain(
        *algorithm, delta, log, resume_options, workers, rep.resume);
    fleet.shutdown();
    return chain;
  });
}

}  // namespace ldlb
