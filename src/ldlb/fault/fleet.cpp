#include "ldlb/fault/fleet.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <deque>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "ldlb/core/base_case.hpp"
#include "ldlb/core/certificate_io.hpp"
#include "ldlb/fault/transport.hpp"
#include "ldlb/graph/graph_io.hpp"
#include "ldlb/util/checksum.hpp"
#include "ldlb/util/ipc.hpp"
#include "ldlb/util/line_reader.hpp"
#include "ldlb/util/net.hpp"

namespace ldlb {

namespace {

// ---------------------------------------------------------------------------
// Wire protocol (net::kNetProtocolVersion 2). Every frame payload is
// "<header line>\n<body>"; the header is whitespace-separated tokens, the
// body is one of the repo's line formats. Requests:
//
//   run <id> <max_rounds>               body: multigraph (graph_io)
//   validate <id> <delta> <loopiness>   body: one level (certificate_io)
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

std::string validate_request(int id, int delta, bool check_loopiness,
                             const CertificateLevel& lv) {
  std::string out = "validate ";
  append_int(out, id);
  out += ' ';
  append_int(out, delta);
  out += check_loopiness ? " 1\n" : " 0\n";
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
      const Multigraph g = multigraph_from_string(body);
      GuardedRunOptions run_options;
      run_options.budget.max_rounds = static_cast<int>(rounds);
      run_options.check_output = false;  // the coordinator never checks
                                         // maximality mid-chain either
      const GuardedOutcome outcome = guarded_run_ec(g, algorithm, run_options);
      if (outcome.status != RunStatus::kOk) {
        return error_reply(id, outcome.status, outcome.env_errno,
                           outcome.error);
      }
      return detail::run_reply(id, outcome.run->matching);
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

// The socket cousin of fleet_worker_main: one accepted connection, served
// until the coordinator hangs up. Heartbeats are sent only while *idle* —
// recv with no deadline but a staleness window of one heartbeat interval
// wakes us exactly when the link has been quiet that long, so a computing
// worker stays silent and a waiting one breathes.
int serve_connection(EcAlgorithm& algorithm, net::FrameChannel& channel,
                     std::uint64_t fingerprint, double heartbeat_interval) {
  try {
    net::server_handshake(channel, fingerprint, Deadline::in(30.0));
  } catch (const HandshakeMismatch&) {
    return 4;  // foreign coordinator; the reject frame already explained
  } catch (const IoError&) {
    return 2;  // peer vanished mid-handshake
  }
  for (;;) {
    net::RecvResult request;
    try {
      request = channel.recv(Deadline(), heartbeat_interval);
    } catch (const IoError&) {
      return 2;  // connection reset under us
    }
    if (request.frame.status == ipc::FrameStatus::kTimeout) {
      // Only the staleness window can fire here (no deadline): idle.
      try {
        channel.send_heartbeat();
      } catch (const IoError&) {
        return 2;
      }
      continue;
    }
    if (request.frame.status == ipc::FrameStatus::kEof) return 0;
    if (request.frame.status != ipc::FrameStatus::kOk) return 3;
    bool shutdown = false;
    const std::string reply =
        handle_request(algorithm, request.frame.payload, shutdown);
    if (shutdown) return 0;
    try {
      channel.send(reply);
    } catch (const IoError&) {
      return 2;
    }
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

std::uint64_t fleet_fingerprint(int delta,
                                const std::string& algorithm_name) {
  std::ostringstream os;
  os << "ldlb-fleet " << delta << " " << algorithm_name;
  return fnv1a_64(os.str());
}

int run_fleet_daemon(const AlgorithmFactory& factory, int delta,
                     net::Listener& listener,
                     const FleetDaemonOptions& options) {
  LDLB_REQUIRE(delta >= 2);
  LDLB_REQUIRE_MSG(factory != nullptr, "fleet daemon needs a factory");
  LDLB_REQUIRE_MSG(listener.valid(), "fleet daemon needs a bound listener");
  const std::unique_ptr<EcAlgorithm> algorithm = factory();
  LDLB_REQUIRE_MSG(algorithm != nullptr, "algorithm factory returned null");
  const std::uint64_t fingerprint =
      fleet_fingerprint(delta, algorithm->name());

  std::vector<pid_t> children;
  long long served = 0;
  for (;;) {
    std::optional<net::FrameChannel> accepted =
        listener.accept_channel(Deadline::in(0.25));
    // Opportunistic reap between accepts, so finished connection children
    // never pile up as zombies.
    for (std::size_t i = 0; i < children.size();) {
      if (ipc::poll_exit(children[i]).kind != ipc::ExitKind::kRunning) {
        children[i] = children.back();
        children.pop_back();
      } else {
        ++i;
      }
    }
    if (!accepted.has_value()) {
      if (options.max_connections > 0 && served >= options.max_connections &&
          children.empty()) {
        return 0;
      }
      continue;
    }
    ++served;
    net::FrameChannel connection = std::move(*accepted);
    const double heartbeat = options.heartbeat_interval_seconds;
    try {
      const pid_t pid = ipc::spawn_child([&]() {
        listener.close();  // the child serves one connection, never accepts
        const std::unique_ptr<EcAlgorithm> worker = factory();
        LDLB_REQUIRE_MSG(worker != nullptr,
                         "algorithm factory returned null");
        return serve_connection(*worker, connection, fingerprint, heartbeat);
      });
      children.push_back(pid);
    } catch (const IoError&) {
      // Cannot fork right now: dropping the connection tells the
      // coordinator to back off and reconnect.
    }
    connection.close();  // parent keeps only the listener
  }
}

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

// The coordinator's view of the worker pool: fixed slots, each holding a
// live transport link and the requests it has not answered yet. All chain
// state lives in the coordinator, so a slot can be killed, disconnected,
// reopened and replayed at any moment without touching the chain.
class Fleet {
 public:
  Fleet(Transport& transport, std::string algorithm_name,
        const FleetOptions& options, FleetReport& report)
      : transport_(transport),
        options_(options),
        report_(report),
        algorithm_name_(std::move(algorithm_name)) {}

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  ~Fleet() { terminate_all(); }

  /// Opens the initial pool. For the pipe transport an IoError (fork
  /// refused) propagates — the caller degrades to the in-process engine.
  /// For the socket transport each failed connect/handshake consumes the
  /// kConnectSetupLevel respawn budget and retries with backoff (a remote
  /// may be rebooting); exhaustion throws WorkerLost and the caller
  /// degrades to the pipe fleet.
  void spawn_all() {
    slots_ = std::vector<Slot>(static_cast<std::size_t>(options_.workers));
    try {
      for (int i = 0; i < options_.workers; ++i) {
        Slot& slot = slots_[static_cast<std::size_t>(i)];
        try {
          slot.link = transport_.open(i);
          ++report_.workers_spawned;
        } catch (const HandshakeMismatch& e) {
          revive(kConnectSetupLevel, i, "handshake", e.what());
          ++report_.workers_spawned;
        } catch (const IoError& e) {
          if (!transport_.open_retries()) throw;
          revive(kConnectSetupLevel, i, transport_.open_failure_kind(),
                 e.what());
          ++report_.workers_spawned;
        }
      }
      // ldlb-lint: allow(catch-all): whatever aborts the initial spawn
      // (WorkerLost, Cancelled, bad_alloc) must not leak live workers.
    } catch (...) {
      terminate_all();
      throw;
    }
  }

  [[nodiscard]] std::vector<pid_t> pids() const {
    std::vector<pid_t> out;
    out.reserve(slots_.size());
    for (const Slot& slot : slots_) {
      out.push_back(slot.link != nullptr ? slot.link->pid() : -1);
    }
    return out;
  }

  /// One fleet-executed adversary step: plan in-process, ship the three
  /// simulations out, combine deterministically.
  CertificateLevel step(int delta, const CertificateLevel& prev, int rounds) {
    AdversaryStepPlan plan = plan_adversary_step(prev);
    const int level = prev.level + 1;
    run_chaos_hooks(level);

    std::vector<std::pair<int, std::string>> requests;
    requests.emplace_back(0, run_request(0, rounds, plan.gh));
    requests.emplace_back(1, run_request(1, rounds, plan.gg.graph));
    requests.emplace_back(2, run_request(2, rounds, plan.hh.graph));
    std::map<int, Reply> replies = exchange(level, std::move(requests));

    FractionalMatching y_gh =
        take_matching(replies.at(0), plan.gh.edge_count(), rounds);
    // The discarded branch's reply — error or result — is simply never
    // looked at, matching the lazy in-process semantics.
    BranchFetch fetch = [&](bool want_gg) {
      Reply& reply = replies.at(want_gg ? 1 : 2);
      const EdgeId expect = want_gg ? plan.gg.graph.edge_count()
                                    : plan.hh.graph.edge_count();
      return take_matching(reply, expect, rounds);
    };
    return combine_adversary_step(delta, prev, std::move(plan),
                                  std::move(y_gh), fetch, algorithm_name_,
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
          validate_request(static_cast<int>(i), chain.delta,
                           options_.check_loopiness, chain.levels[i]));
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

  /// Graceful teardown: shutdown frames, then close (pipes also reap,
  /// killing stragglers).
  void shutdown() {
    for (Slot& slot : slots_) {
      if (slot.link == nullptr) continue;
      slot.link->finish();
      slot.link.reset();
    }
  }

  /// The incident-accounting bucket for revalidation exchanges.
  static constexpr int kRevalidationLevel = -1;
  /// The incident-accounting bucket for the initial socket connects.
  static constexpr int kConnectSetupLevel = -2;

 private:
  struct Slot {
    std::unique_ptr<WorkerLink> link;
    std::deque<std::pair<int, std::string>> outstanding;  // id, payload
  };

  // Unconditional teardown for destruction and failed spawn_all: close,
  // kill, reap, never throw.
  void terminate_all() noexcept {
    for (Slot& slot : slots_) {
      if (slot.link == nullptr) continue;
      slot.link->terminate();
      slot.link.reset();
    }
  }

  // The chaos seams, fired before each level's requests go out.
  void run_chaos_hooks(int level) {
    if (options_.on_level) options_.on_level(level, pids());
    if (options_.on_level_drop) {
      options_.on_level_drop(
          level, static_cast<int>(slots_.size()), [this](int s) {
            LDLB_REQUIRE_MSG(
                s >= 0 && s < static_cast<int>(slots_.size()),
                "on_level_drop slot " << s << " out of range");
            Slot& slot = slots_[static_cast<std::size_t>(s)];
            if (slot.link != nullptr) slot.link->drop();
          });
    }
  }

  // Survives the loss of slot `s`: records the incident, enforces the
  // per-level respawn budget (throwing WorkerLost once it is spent), waits
  // out the geometric backoff and reopens the slot through the transport.
  // A refused reopen is itself an incident ("spawn"/"connect"/"handshake")
  // and consumes budget like any other. Does NOT replay the slot's
  // outstanding requests — callers rewrite them.
  void revive(int level, int s, const std::string& hint_kind,
              std::string detail) {
    Slot& slot = slots_[static_cast<std::size_t>(s)];
    if (incident_level_ != level) {
      incident_level_ = level;
      incidents_this_level_ = 0;
    }

    WorkerIncident incident;
    incident.level = level;
    incident.worker_slot = s;
    if (slot.link != nullptr) {
      const LinkLoss loss = slot.link->close_after_loss(hint_kind, detail);
      slot.link.reset();
      incident.kind = loss.kind;
      incident.detail = loss.detail;
    } else {
      incident.kind =
          hint_kind.empty() ? transport_.open_failure_kind() : hint_kind;
      incident.detail = std::move(detail);
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
      slot.link = transport_.open(s);
      ++report_.respawns;
      incident.respawned = true;
      report_.incidents.push_back(incident);
    } catch (const HandshakeMismatch& e) {
      incident.respawned = false;
      report_.incidents.push_back(incident);
      // Recursion is bounded by the respawn budget consumed above.
      revive(level, s, "handshake", e.what());
    } catch (const IoError& e) {
      incident.respawned = false;
      report_.incidents.push_back(incident);
      revive(level, s, transport_.open_failure_kind(), e.what());
    }
  }

  // Used when no frame-level classification applies (the transport then
  // classifies: pipes from the reaped exit status, sockets "disconnect").
  static std::string no_hint() { return std::string(); }

  // (Re)writes every outstanding request of slot `s`, reviving on write
  // failure until the slot holds a worker that accepted them all.
  void flush_slot(int level, int s, bool replay) {
    for (;;) {
      Slot& slot = slots_[static_cast<std::size_t>(s)];
      try {
        for (const auto& [id, payload] : slot.outstanding) {
          slot.link->send(payload);
        }
        if (replay) {
          report_.requests_replayed +=
              static_cast<int>(slot.outstanding.size());
        }
        return;
      } catch (const IoError& e) {
        revive(level, s, no_hint(), e.what());
        replay = true;
      }
    }
  }

  // Dispatches `requests` round-robin across the slots and collects every
  // reply, riding out worker losses by respawn-and-replay. Returns replies
  // keyed by request id; an entry exists for every request on return.
  std::map<int, Reply> exchange(
      int level, std::vector<std::pair<int, std::string>> requests) {
    if (options_.adversary.cancel) options_.adversary.cancel->check();
    const int width = static_cast<int>(slots_.size());
    LDLB_ENSURE_MSG(width > 0, "fleet exchange with no workers");
    for (std::size_t i = 0; i < requests.size(); ++i) {
      Slot& slot = slots_[i % static_cast<std::size_t>(width)];
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
        const net::RecvResult received = slot.link->recv(
            Deadline::in(options_.reply_deadline_seconds));
        const ipc::FrameResult& frame = received.frame;
        if (frame.status != ipc::FrameStatus::kOk) {
          const std::string hint =
              received.stale ? "stale-heartbeat"
              : frame.status == ipc::FrameStatus::kTimeout ? "hang"
              : frame.status == ipc::FrameStatus::kCorrupt ? "corrupt-frame"
                                                           : no_hint();
          revive(level, s, hint, frame.detail);
          flush_slot(level, s, /*replay=*/true);
          continue;
        }
        std::optional<Reply> reply =
            parse_reply(frame.payload, slot.outstanding.front().first);
        if (!reply.has_value()) {
          revive(level, s, "corrupt-frame",
                 "reply payload failed to parse");
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

  Transport& transport_;
  const FleetOptions& options_;
  FleetReport& report_;
  const std::string algorithm_name_;
  std::vector<Slot> slots_;
  int incident_level_ = INT_MIN;
  int incidents_this_level_ = 0;
};

// Per-level supervision, mirroring the retry semantics of the in-process
// resumable engine: transient failures retry with an escalated round
// budget; permanent ones (including WorkerLost — its respawn budget is
// already spent by the time it surfaces) rethrow immediately. Every attempt
// lands in `log`.
template <typename Build>
CertificateLevel supervised_fleet_level(const RetryPolicy& policy,
                                        int base_rounds, SupervisionLog& log,
                                        Build&& build) {
  for (int attempt = 1;; ++attempt) {
    RunBudget base;
    base.max_rounds = base_rounds;
    const int rounds = policy.escalated(base, attempt).max_rounds;
    SupervisionAttempt record;
    record.attempt = attempt;
    record.max_rounds = rounds;
    try {
      CertificateLevel lv = build(rounds);
      record.status = RunStatus::kOk;
      log.attempts.push_back(std::move(record));
      return lv;
    } catch (const BudgetExceeded& e) {
      record.status = RunStatus::kBudgetExceeded;
      record.error = e.what();
      log.attempts.push_back(std::move(record));
      if (attempt >= policy.max_attempts) {
        log.exhausted = true;
        throw;
      }
    } catch (const FaultInjected& e) {
      record.status = RunStatus::kFaultInjected;
      record.error = e.what();
      log.attempts.push_back(std::move(record));
      if (!policy.retry_fault_injected) throw;
      if (attempt >= policy.max_attempts) {
        log.exhausted = true;
        throw;
      }
    } catch (const Cancelled& e) {
      record.status = RunStatus::kCancelled;
      record.error = e.what();
      log.attempts.push_back(std::move(record));
      throw;
    } catch (const IoError& e) {
      record.status = RunStatus::kEnvFault;
      record.error = e.what();
      log.attempts.push_back(std::move(record));
      if (!policy.transient(RunStatus::kEnvFault, e.error_code())) throw;
      if (attempt >= policy.max_attempts) {
        log.exhausted = true;
        throw;
      }
    } catch (const WorkerLost& e) {
      record.status = RunStatus::kWorkerLost;
      record.error = e.what();
      log.attempts.push_back(std::move(record));
      throw;
    } catch (const ModelViolation& e) {
      record.status = RunStatus::kModelViolation;
      record.error = e.what();
      log.attempts.push_back(std::move(record));
      throw;
    } catch (const Error& e) {
      record.status = RunStatus::kContractViolation;
      record.error = e.what();
      log.attempts.push_back(std::move(record));
      throw;
    }
  }
}

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
  } else if (level == Fleet::kConnectSetupLevel) {
    os << "connect-setup";
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
  for (const std::string& step : degrades) {
    os << "\ndegraded: " << step;
  }
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
                                          int delta, CheckpointStore& store,
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

  const auto run_in_process =
      [&](const std::string& degrade_reason) -> LowerBoundCertificate {
    rep.transport = "in-process";
    rep.degraded_in_process = !degrade_reason.empty();
    rep.degrade_reason = degrade_reason;
    ResumeOptions resume_options;
    resume_options.adversary = options.adversary;
    resume_options.retry = options.retry;
    resume_options.revalidate = options.revalidate;
    resume_options.check_loopiness = options.check_loopiness;
    resume_options.on_checkpoint = options.on_checkpoint;
    return run_adversary_resumable(*algorithm, delta, store, resume_options,
                                   &rep.resume);
  };

  // The whole chain run over one (already spawned) fleet. Resuming is free
  // across degradation steps: every certified level is already in the
  // store, so a fall-back transport picks up exactly where the failed one
  // stopped, without recomputing a level.
  const auto run_with = [&](Fleet& fleet) -> LowerBoundCertificate {
    LowerBoundCertificate chain = store.load(&rep.resume.recovery);
    rep.resume.loaded_levels = static_cast<int>(chain.levels.size());

    // A stored chain for a different job is worthless, however intact it is.
    if (!chain.levels.empty() &&
        (chain.delta != delta ||
         chain.algorithm_name != algorithm->name())) {
      std::ostringstream os;
      os << "stored chain is for delta=" << chain.delta << ", algorithm '"
         << chain.algorithm_name << "'; this run wants delta=" << delta
         << ", algorithm '" << algorithm->name() << "'";
      rep.resume.discard_reason = os.str();
      chain.levels.clear();
    }

    // Re-validation of the loaded prefix, sharded across the fleet.
    if (options.revalidate && !chain.levels.empty()) {
      const std::size_t keep = fleet.revalidate(chain);
      if (keep < chain.levels.size()) {
        std::ostringstream os;
        os << "loaded level " << chain.levels[keep].level
           << " failed fleet re-validation against '" << algorithm->name()
           << "'";
        rep.resume.discard_reason = os.str();
        chain.levels.resize(keep);
      }
    }
    rep.resume.trusted_levels = static_cast<int>(chain.levels.size());

    chain.delta = delta;
    chain.algorithm_name = algorithm->name();

    const int base_rounds = adversary_round_budget(delta, options.adversary);
    const auto checkpoint = [&](const CertificateLevel& lv) {
      store.checkpoint(chain);
      ++rep.resume.computed_levels;
      if (options.on_checkpoint) options.on_checkpoint(lv);
    };

    if (options.adversary.cancel) options.adversary.cancel->check();

    if (chain.levels.empty()) {
      // The base case is one node with Δ loops — not worth a round-trip.
      CertificateLevel base = supervised_fleet_level(
          options.retry, base_rounds, rep.resume.supervision,
          [&](int rounds) {
            return build_base_case(*algorithm, delta, rounds);
          });
      chain.levels.push_back(std::move(base));
      checkpoint(chain.levels.back());
    }

    while (chain.certified_radius() < delta - 2) {
      if (options.adversary.cancel) options.adversary.cancel->check();
      CertificateLevel next = supervised_fleet_level(
          options.retry, base_rounds, rep.resume.supervision,
          [&](int rounds) {
            return fleet.step(delta, chain.levels.back(), rounds);
          });
      chain.levels.push_back(std::move(next));
      checkpoint(chain.levels.back());
    }

    LDLB_ENSURE(chain.certified_radius() == delta - 2);
    fleet.shutdown();
    return chain;
  };

  return classify_into_report(rep, [&]() -> LowerBoundCertificate {
    if (options.workers == 0) return run_in_process("");

    const ipc::WorkerMain body = [factory](int in_fd, int out_fd) {
      return fleet_worker_main(factory, in_fd, out_fd);
    };

    const auto run_pipe = [&]() -> LowerBoundCertificate {
      rep.transport = "pipe";
      const std::unique_ptr<Transport> pipe = make_pipe_transport(body);
      Fleet fleet(*pipe, algorithm->name(), options, rep);
      try {
        fleet.spawn_all();
      } catch (const IoError& e) {
        // Mirrors ThreadPool::construction_error(): an environment that
        // cannot fork still certifies, just without isolation.
        if (!options.degrade) throw;
        rep.degrades.push_back(std::string("pipe -> in-process: ") +
                               e.what());
        return run_in_process(e.what());
      }
      return run_with(fleet);
    };

    if (options.remotes.empty()) return run_pipe();

    rep.transport = "socket";
    const std::unique_ptr<Transport> socket = make_socket_transport(
        options.remotes, fleet_fingerprint(delta, algorithm->name()),
        SocketTuning{options.connect_timeout_seconds,
                     options.stale_after_seconds});
    try {
      Fleet fleet(*socket, algorithm->name(), options, rep);
      fleet.spawn_all();
      return run_with(fleet);
    } catch (const WorkerLost& e) {
      // The remote fleet is exhausted; the chain so far is checkpointed,
      // so the pipe fleet resumes it without recomputing a level.
      if (!options.degrade) throw;
      rep.degrades.push_back(std::string("socket -> pipe: ") + e.what());
      return run_pipe();
    }
  });
}

}  // namespace ldlb
